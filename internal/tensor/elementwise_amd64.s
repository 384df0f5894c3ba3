#include "textflag.h"

// The AVX2 kernels under elementwise.go. Each handles n elements, n a
// positive multiple of four, four lanes at a time; every lane runs its
// element's scalar operations in the scalar order, one instruction per
// operation. There is deliberately no fused multiply-add.

// func relu4(x *float64, n int)
//
// x[i] = max(x[i], 0): the mask "x <= 0" (ordered, so false for NaN)
// clears the lane to +0. That is max's result for negatives and −0, and
// NaN and positives keep their bits.
TEXT ·relu4(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	VXORPD Y15, Y15, Y15

relu:
	VMOVUPD  (DI), Y0
	VCMPPD   $0x12, Y15, Y0, Y1 // LE_OQ: Y1 = Y0 <= 0
	VANDNPD  Y0, Y1, Y0         // Y0 &^ Y1
	VMOVUPD  Y0, (DI)
	ADDQ     $32, DI
	SUBQ     $4, CX
	JNZ      relu
	VZEROUPPER
	RET

// func reluGrad4(d, y *float64, n int)
//
// d[i] = 0 where y[i] <= 0 (ordered: a NaN y keeps its d), as the scalar
// branch does.
TEXT ·reluGrad4(SB), NOSPLIT, $0-24
	MOVQ   d+0(FP), DI
	MOVQ   y+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y15, Y15, Y15

reluGrad:
	VMOVUPD (SI), Y1
	VCMPPD  $0x12, Y15, Y1, Y1 // LE_OQ: Y1 = y <= 0
	VMOVUPD (DI), Y0
	VANDNPD Y0, Y1, Y0         // d &^ mask
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     reluGrad
	VZEROUPPER
	RET

// func add4(dst, src *float64, n int)
//
// dst[i] += src[i].
TEXT ·add4(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add:
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     add
	VZEROUPPER
	RET

// func blend4(dst, src *float64, n int, t, omt float64)
//
// dst[i] = t*src[i] + omt*dst[i].
TEXT ·blend4(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD t+24(FP), Y14
	VBROADCASTSD omt+32(FP), Y15

blend:
	VMULPD  (SI), Y14, Y0 // t*src
	VMULPD  (DI), Y15, Y1 // omt*dst
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     blend
	VZEROUPPER
	RET

// func adam4(p, grad, m, v *float64, n int, c *AdamCoef)
//
// m = B1*m + OB1*grad; v = B2*v + (OB2*grad)*grad;
// p -= LR*(m/C1) / (sqrt(v/C2) + Eps).
TEXT ·adam4(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         c+40(FP), AX
	VBROADCASTSD 0(AX), Y8   // B1
	VBROADCASTSD 8(AX), Y9   // OB1
	VBROADCASTSD 16(AX), Y10 // B2
	VBROADCASTSD 24(AX), Y11 // OB2
	VBROADCASTSD 32(AX), Y12 // LR
	VBROADCASTSD 40(AX), Y13 // C1
	VBROADCASTSD 48(AX), Y14 // C2
	VBROADCASTSD 56(AX), Y15 // Eps

adam:
	VMOVUPD (SI), Y0      // g
	VMULPD  (R8), Y8, Y1  // B1*m
	VMULPD  Y0, Y9, Y2    // OB1*g
	VADDPD  Y2, Y1, Y1    // m'
	VMOVUPD Y1, (R8)
	VMULPD  (R9), Y10, Y3 // B2*v
	VMULPD  Y0, Y11, Y4   // OB2*g
	VMULPD  Y0, Y4, Y4    // (OB2*g)*g
	VADDPD  Y4, Y3, Y3    // v'
	VMOVUPD Y3, (R9)
	VDIVPD  Y13, Y1, Y1   // m'/C1
	VMULPD  Y1, Y12, Y1   // LR*(m'/C1)
	VDIVPD  Y14, Y3, Y3   // v'/C2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3   // sqrt(v'/C2) + Eps
	VDIVPD  Y3, Y1, Y1    // step
	VMOVUPD (DI), Y0
	VSUBPD  Y1, Y0, Y0    // p - step
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, CX
	JNZ     adam
	VZEROUPPER
	RET
