#include "textflag.h"

// func fillBlocks(dst *byte, blocks int, s *[4]uint64)
//
// The four xorshift64 lanes a, b, c, d are one YMM register of four
// uint64s; each block advances all four with three shift-and-xor pairs.
// Read as eight int32s the register is [a.lo, a.hi, b.lo, b.hi, …], the
// little-endian order activationPair packs, so one VCVTDQ2PS (round to
// nearest under the default MXCSR, as the scalar CVTSL2SS) and one VMULPS
// by 2^-28 (exact) give the block's eight float32s, stored in one write.
TEXT ·fillBlocks(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         blocks+8(FP), CX
	MOVQ         s+16(FP), SI
	VMOVDQU      (SI), Y0
	MOVL         $0x31800000, AX // float32 2^-28
	MOVQ         AX, X1
	VPBROADCASTD X1, Y1

block:
	VPSLLQ    $13, Y0, Y2
	VPXOR     Y2, Y0, Y0
	VPSRLQ    $7, Y0, Y2
	VPXOR     Y2, Y0, Y0
	VPSLLQ    $17, Y0, Y2
	VPXOR     Y2, Y0, Y0
	VCVTDQ2PS Y0, Y3
	VMULPS    Y1, Y3, Y3
	VMOVDQU   Y3, (DI)
	ADDQ      $32, DI
	DECQ      CX
	JNZ       block

	VMOVDQU Y0, (SI)
	VZEROUPPER
	RET
