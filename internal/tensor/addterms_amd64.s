#include "textflag.h"

// func addTiles16(o, b *float64, off *int, val *float64, terms, tiles int)
//
// For each of tiles 16-column tiles of the output row o, adds
// Σ_p val[p]·b[off[p]+j] to o[j], the terms in list order. Four YMM
// accumulators hold the tile; every term is one broadcast, then a separate
// multiply and add per four lanes, so each lane rounds exactly as the
// scalar c += av*b[j] does. There is deliberately no fused multiply-add.
TEXT ·addTiles16(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ off+16(FP), R8
	MOVQ val+24(FP), R9
	MOVQ terms+32(FP), R10
	MOVQ tiles+40(FP), R11

tile:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    CX, CX

term:
	VBROADCASTSD (R9)(CX*8), Y4
	MOVQ         (R8)(CX*8), DX
	LEAQ         (SI)(DX*8), DX
	VMULPD       0(DX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(DX), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(DX), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(DX), Y4, Y8
	VADDPD       Y8, Y3, Y3
	INCQ         CX
	CMPQ         CX, R10
	JLT          term

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    R11
	JNZ     tile

	VZEROUPPER
	RET
