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

// The AVX-512 kernels. They use Z0–Z14 and K1–K5 only, and end with
// VZEROUPPER like the AVX2 one.

// iota8 is the int64 vector 0, 1, …, 7: lane j of a gather's offset (and
// index) vectors is iota8[j]·stride plus the chunk's base.
DATA iota8<>+0(SB)/8, $0
DATA iota8<>+8(SB)/8, $1
DATA iota8<>+16(SB)/8, $2
DATA iota8<>+24(SB)/8, $3
DATA iota8<>+32(SB)/8, $4
DATA iota8<>+40(SB)/8, $5
DATA iota8<>+48(SB)/8, $6
DATA iota8<>+56(SB)/8, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $64

// GATHER_INIT(stride, base, Zvec, Zstep) sets Zvec to base + j·stride for
// lanes j = 0…7 and Zstep to 8·stride, with Z13 as scratch.
#define GATHER_INIT(stride, base, Zvec, Zstep) \
	VPBROADCASTQ stride, Zstep             \
	VPMULLQ      iota8<>(SB), Zstep, Zvec  \
	VPBROADCASTQ base, Z13                 \
	VPADDQ       Z13, Zvec, Zvec           \
	VPSLLQ       $3, Zstep, Zstep

// COMPRESS keeps the lanes of Z0 that compare unequal to zero (Z14), NaN
// included and ±0 not, as Go's av != 0 does, and writes them and the
// matching lanes of the offset vector Z3 to val[DX…] and off[DX…] (R9 and
// R8), whole vectors: the lanes past the kept ones are never read. DX
// grows by the number kept.
#define COMPRESS \
	VCMPPD        $4, Z14, Z0, K2  \
	VCOMPRESSPD.Z Z0, K2, Z6       \
	VPCOMPRESSQ.Z Z3, K2, Z7       \
	VMOVUPD       Z6, (R9)(DX*8)   \
	VMOVDQU64     Z7, (R8)(DX*8)   \
	KMOVB         K2, AX           \
	POPCNTL       AX, AX           \
	ADDQ          AX, DX

// TAIL_MASK sets K1 to the low BX bits (0 < BX < 8), with CX and AX as
// scratch.
#define TAIL_MASK \
	MOVQ  BX, CX  \
	MOVL  $1, AX  \
	SHLL  CX, AX  \
	DECL  AX      \
	KMOVB AX, K1

// func gatherRow8(off *int, val *float64, a *float64, terms, o, n int) int
//
// Writes the nonzero elements of a[0:terms] to val and their b-row offsets
// o + k·n to off, in ascending k, and returns how many there are. 0 < terms
// ≤ 64 and off and val hold 64 elements: each chunk stores eight lanes at
// the count so far, which is at most 56. The last chunk's load is masked
// to the terms left, so no element past a[terms-1] is read.
TEXT ·gatherRow8(SB), NOSPLIT, $0-56
	MOVQ off+0(FP), R8
	MOVQ val+8(FP), R9
	MOVQ a+16(FP), SI
	MOVQ terms+24(FP), BX
	MOVQ o+32(FP), R10
	MOVQ n+40(FP), R11
	GATHER_INIT(R11, R10, Z3, Z2)
	VPXORQ Z14, Z14, Z14
	XORQ   DX, DX

rowchunk:
	CMPQ    BX, $8
	JLT     rowtail
	VMOVUPD (SI), Z0
	COMPRESS
	VPADDQ  Z2, Z3, Z3
	ADDQ    $64, SI
	SUBQ    $8, BX
	JMP     rowchunk

rowtail:
	TESTQ     BX, BX
	JZ        rowdone
	TAIL_MASK
	VMOVUPD.Z (SI), K1, Z0
	COMPRESS

rowdone:
	MOVQ DX, ret+48(FP)
	VZEROUPPER
	RET

// func gatherCol8(off *int, val *float64, a *float64, m, terms, o, n int) int
//
// gatherRow8 for the strided column a[0], a[m], …, a[(terms-1)·m]: each
// chunk is one VGATHERQPD at index k·m, the last one masked to the terms
// left, so no element past a[(terms-1)·m] is read.
TEXT ·gatherCol8(SB), NOSPLIT, $0-64
	MOVQ off+0(FP), R8
	MOVQ val+8(FP), R9
	MOVQ a+16(FP), SI
	MOVQ m+24(FP), R12
	MOVQ terms+32(FP), BX
	MOVQ o+40(FP), R10
	MOVQ n+48(FP), R11
	GATHER_INIT(R11, R10, Z3, Z2)
	XORQ DX, DX
	GATHER_INIT(R12, DX, Z8, Z9)
	VPXORQ Z14, Z14, Z14

colchunk:
	CMPQ       BX, $8
	JLT        coltail
	KXNORB     K1, K1, K1
	VPXORQ     Z0, Z0, Z0
	VGATHERQPD (SI)(Z8*8), K1, Z0
	COMPRESS
	VPADDQ     Z2, Z3, Z3
	VPADDQ     Z9, Z8, Z8
	SUBQ       $8, BX
	JMP        colchunk

coltail:
	TESTQ      BX, BX
	JZ         coldone
	TAIL_MASK
	VPXORQ     Z0, Z0, Z0
	VGATHERQPD (SI)(Z8*8), K1, Z0
	COMPRESS

coldone:
	MOVQ DX, ret+56(FP)
	VZEROUPPER
	RET

// func addRow8(o, b *float64, off *int, val *float64, terms, n int)
//
// Adds Σ_p val[p]·b[off[p]+j] to o[j] for every column j < n, the terms in
// list order. The row goes 32 columns at a time, four ZMM accumulators of
// eight lanes, each loaded once, summed over the whole list and stored
// once. Every term is one broadcast, then a separate multiply and add per
// eight lanes, so each lane rounds exactly as the scalar c += av*b[j]
// does. There is deliberately no fused multiply-add. The last 1–31 columns
// run as one, two or four groups under the masks K1–K4 (all ones for whole
// blocks): a masked-off lane is neither read from b or o nor written.
TEXT ·addRow8(SB), NOSPLIT, $0-48
	MOVQ   o+0(FP), DI
	MOVQ   b+8(FP), SI
	MOVQ   off+16(FP), R8
	MOVQ   val+24(FP), R9
	MOVQ   terms+32(FP), R10
	MOVQ   n+40(FP), R11
	KXNORB K1, K1, K1
	KXNORB K2, K2, K2
	KXNORB K3, K3, K3
	KXNORB K4, K4, K4

block:
	CMPQ R11, $32
	JLT  rowtail

terms4block:
	VMOVUPD.Z 0(DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	VMOVUPD.Z 128(DI), K3, Z2
	VMOVUPD.Z 192(DI), K4, Z3
	XORQ      CX, CX

terms4:
	VBROADCASTSD (R9)(CX*8), Z4
	MOVQ         (R8)(CX*8), DX
	LEAQ         (SI)(DX*8), DX
	VMULPD.Z     0(DX), Z4, K1, Z5
	VADDPD       Z5, Z0, Z0
	VMULPD.Z     64(DX), Z4, K2, Z6
	VADDPD       Z6, Z1, Z1
	VMULPD.Z     128(DX), Z4, K3, Z7
	VADDPD       Z7, Z2, Z2
	VMULPD.Z     192(DX), Z4, K4, Z8
	VADDPD       Z8, Z3, Z3
	INCQ         CX
	CMPQ         CX, R10
	JLT          terms4

	VMOVUPD Z0, K1, 0(DI)
	VMOVUPD Z1, K2, 64(DI)
	VMOVUPD Z2, K3, 128(DI)
	VMOVUPD Z3, K4, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, R11
	JMP     block

// 0 < R11 < 32 columns are left: K1–K4 take bits 0–7, 8–15, 16–23 and
// 24–31 of the mask of R11 ones. More than 16 run as one more four-group
// block (R11 = 32 makes it the last).
rowtail:
	TESTQ R11, R11
	JZ    rowend
	MOVQ  R11, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVB AX, K1
	SHRL  $8, AX
	KMOVB AX, K2
	SHRL  $8, AX
	KMOVB AX, K3
	SHRL  $8, AX
	KMOVB AX, K4
	CMPQ  R11, $8
	JLE   tail1
	CMPQ  R11, $16
	JLE   tail2
	MOVQ  $32, R11
	JMP   terms4block

tail2:
	VMOVUPD.Z 0(DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	XORQ      CX, CX

terms2:
	VBROADCASTSD (R9)(CX*8), Z4
	MOVQ         (R8)(CX*8), DX
	LEAQ         (SI)(DX*8), DX
	VMULPD.Z     0(DX), Z4, K1, Z5
	VADDPD       Z5, Z0, Z0
	VMULPD.Z     64(DX), Z4, K2, Z6
	VADDPD       Z6, Z1, Z1
	INCQ         CX
	CMPQ         CX, R10
	JLT          terms2

	VMOVUPD Z0, K1, 0(DI)
	VMOVUPD Z1, K2, 64(DI)
	JMP     rowend

tail1:
	VMOVUPD.Z 0(DI), K1, Z0
	XORQ      CX, CX

terms1:
	VBROADCASTSD (R9)(CX*8), Z4
	MOVQ         (R8)(CX*8), DX
	LEAQ         (SI)(DX*8), DX
	VMULPD.Z     0(DX), Z4, K1, Z5
	VADDPD       Z5, Z0, Z0
	INCQ         CX
	CMPQ         CX, R10
	JLT          terms1

	VMOVUPD Z0, K1, 0(DI)

rowend:
	VZEROUPPER
	RET
