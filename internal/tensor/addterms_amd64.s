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

// The AVX-512 kernels. They use Z0–Z14, Z16–Z22 and K1–K4 only, and end
// with VZEROUPPER like the AVX2 one.

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

// TAIL_MASK4 sets K1–K4 to bits 0–7, 8–15, 16–23 and 24–31 of the mask of
// the low R11 bits (0 < R11 < 32), with CX and AX as scratch: the masks
// of a masked block of four eight-lane groups ending at column R11.
#define TAIL_MASK4 \
	MOVQ  R11, CX \
	MOVL  $1, AX  \
	SHLL  CX, AX  \
	DECL  AX      \
	KMOVB AX, K1  \
	SHRL  $8, AX  \
	KMOVB AX, K2  \
	SHRL  $8, AX  \
	KMOVB AX, K3  \
	SHRL  $8, AX  \
	KMOVB AX, K4

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

// 0 < R11 < 32 columns are left. More than 16 run as one more four-group
// block (R11 = 32 makes it the last).
rowtail:
	TESTQ R11, R11
	JZ    rowend
	TAIL_MASK4
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

// NCOL(off, Zacc) adds the term of one narrow column to its accumulator:
// the a-elements Z0 times the column's b-element at off(R9), broadcast,
// added only in the lanes of K2. a is the first operand of the multiply
// and the accumulator of the add, as in addRow8.
#define NCOL(off, Zacc) \
	VMULPD.BCST off(R9), Z0, Z5 \
	VADDPD      Z5, Zacc, K2, Zacc

// NSTORE(off, Zacc) scatters one column's accumulator to off(DI) + lane·n
// under the row mask K1 (a scatter clears its mask, so it gets a copy).
#define NSTORE(off, Zacc) \
	KMOVB       K1, K3 \
	VSCATTERQPD Zacc, K3, off(DI)(Z9*8)

// func mulNarrow8(o, a, b *float64, rows, terms, n, lane, step int)
//
// The narrow products of MulABInto and MulATBInto: for each of rows output
// rows i of n columns (0 < n < 8), o[i·n+j] = Σ_k a[i·lane+k·step]·b[k·n+j]
// over k < terms in ascending k, from +0, skipping the zero a-elements.
// Eight rows go at a time, one accumulator per column, lane r for row r of
// the group. Per term the group's eight a-elements are fetched once: one
// load when lane is 1 (MulATBInto: a slice of row k of a), else one
// VGATHERQPD at stride lane (MulABInto: column k of a). VCMPPD NEQ_UQ
// against zero, as COMPRESS uses, marks the lanes to add (K2): NaN is
// added, ±0 is not. Each column then takes a separate multiply by its
// b-element and a merge-masked add, so each lane rounds as the scalar
// c += av*b[j] does; there is deliberately no fused multiply-add. The last
// group masks its 1–7 rows (K1): a masked-off row is neither read nor
// written. Each accumulator is scattered to its column once per group.
TEXT ·mulNarrow8(SB), NOSPLIT, $0-64
	MOVQ         o+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), R12
	MOVQ         rows+24(FP), BX
	MOVQ         terms+32(FP), R10
	MOVQ         n+40(FP), R11
	MOVQ         lane+48(FP), R13
	MOVQ         step+56(FP), DX
	VPBROADCASTQ R13, Z8
	VPMULLQ      iota8<>(SB), Z8, Z8
	VPBROADCASTQ R11, Z9
	VPMULLQ      iota8<>(SB), Z9, Z9
	SHLQ         $6, R13
	SHLQ         $3, DX
	VPXORQ       Z14, Z14, Z14
	KXNORB       K1, K1, K1

group:
	CMPQ   BX, $8
	JGE    groupfull
	TAIL_MASK

groupfull:
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	MOVQ   SI, R8
	MOVQ   R12, R9
	MOVQ   R10, CX

term:
	CMPQ       R13, $64
	JNE        gathera
	VMOVUPD.Z  (R8), K1, Z0
	JMP        fetched

gathera:
	KMOVB      K1, K3
	VPXORQ     Z0, Z0, Z0
	VGATHERQPD (R8)(Z8*8), K3, Z0

fetched:
	VCMPPD $4, Z14, Z0, K1, K2
	NCOL(0, Z16)
	CMPQ   R11, $1
	JEQ    termdone
	NCOL(8, Z17)
	CMPQ   R11, $2
	JEQ    termdone
	NCOL(16, Z18)
	CMPQ   R11, $3
	JEQ    termdone
	NCOL(24, Z19)
	CMPQ   R11, $4
	JEQ    termdone
	NCOL(32, Z20)
	CMPQ   R11, $5
	JEQ    termdone
	NCOL(40, Z21)
	CMPQ   R11, $6
	JEQ    termdone
	NCOL(48, Z22)

termdone:
	ADDQ DX, R8
	LEAQ (R9)(R11*8), R9
	DECQ CX
	JNZ  term

	NSTORE(0, Z16)
	CMPQ R11, $1
	JEQ  stored
	NSTORE(8, Z17)
	CMPQ R11, $2
	JEQ  stored
	NSTORE(16, Z18)
	CMPQ R11, $3
	JEQ  stored
	NSTORE(24, Z19)
	CMPQ R11, $4
	JEQ  stored
	NSTORE(32, Z20)
	CMPQ R11, $5
	JEQ  stored
	NSTORE(40, Z21)
	CMPQ R11, $6
	JEQ  stored
	NSTORE(48, Z22)

stored:
	ADDQ R13, SI
	MOVQ R11, AX
	SHLQ $6, AX
	ADDQ AX, DI
	SUBQ $8, BX
	JG   group

	VZEROUPPER
	RET

// func transpose8(o, m *float64, rows, cols int)
//
// Writes mᵀ to o for the rows×cols matrix m (0 < rows, 0 < cols): output
// row j is column j of m, fetched eight elements at a time with one
// VGATHERQPD at stride cols and stored whole, the last 1–7 under the
// row-tail mask K1.
TEXT ·transpose8(SB), NOSPLIT, $0-32
	MOVQ         o+0(FP), DI
	MOVQ         m+8(FP), SI
	MOVQ         rows+16(FP), R10
	MOVQ         cols+24(FP), R11
	VPBROADCASTQ R11, Z8
	VPMULLQ      iota8<>(SB), Z8, Z8
	MOVQ         R11, R12
	SHLQ         $6, R12
	MOVQ         R10, BX
	ANDQ         $7, BX
	JZ           tcols
	TAIL_MASK

tcols:
	MOVQ R11, DX

tcol:
	MOVQ SI, R9
	MOVQ R10, CX

tchunk:
	CMPQ       CX, $8
	JLT        ttail
	KXNORB     K2, K2, K2
	VPXORQ     Z0, Z0, Z0
	VGATHERQPD (R9)(Z8*8), K2, Z0
	VMOVUPD    Z0, (DI)
	ADDQ       $64, DI
	ADDQ       R12, R9
	SUBQ       $8, CX
	JMP        tchunk

ttail:
	TESTQ      CX, CX
	JZ         tnext
	KMOVB      K1, K2
	VPXORQ     Z0, Z0, Z0
	VGATHERQPD (R9)(Z8*8), K2, Z0
	VMOVUPD    Z0, K1, (DI)
	LEAQ       (DI)(CX*8), DI

tnext:
	ADDQ $8, SI
	DECQ DX
	JNZ  tcol

	VZEROUPPER
	RET

// func addRowVec8(m, v *float64, rows, cols int)
//
// Adds v to every row of the rows×cols matrix m (0 < rows, 0 < cols), m
// the first operand of each add, as in add4. Columns go 32 at a time: the
// block of v is loaded once into four registers and added to the block of
// every row. The last 1–31 run as one more block under the masks K1–K4
// (all ones for whole blocks).
TEXT ·addRowVec8(SB), NOSPLIT, $0-32
	MOVQ   m+0(FP), DI
	MOVQ   v+8(FP), SI
	MOVQ   rows+16(FP), R10
	MOVQ   cols+24(FP), R11
	MOVQ   R11, R12
	SHLQ   $3, R12
	KXNORB K1, K1, K1
	KXNORB K2, K2, K2
	KXNORB K3, K3, K3
	KXNORB K4, K4, K4

ablock:
	CMPQ R11, $32
	JLT  atail

ablock4:
	VMOVUPD.Z 0(SI), K1, Z4
	VMOVUPD.Z 64(SI), K2, Z5
	VMOVUPD.Z 128(SI), K3, Z6
	VMOVUPD.Z 192(SI), K4, Z7
	MOVQ      DI, R8
	MOVQ      R10, CX

arow:
	VMOVUPD.Z 0(R8), K1, Z0
	VMOVUPD.Z 64(R8), K2, Z1
	VMOVUPD.Z 128(R8), K3, Z2
	VMOVUPD.Z 192(R8), K4, Z3
	VADDPD    Z4, Z0, Z0
	VADDPD    Z5, Z1, Z1
	VADDPD    Z6, Z2, Z2
	VADDPD    Z7, Z3, Z3
	VMOVUPD   Z0, K1, 0(R8)
	VMOVUPD   Z1, K2, 64(R8)
	VMOVUPD   Z2, K3, 128(R8)
	VMOVUPD   Z3, K4, 192(R8)
	ADDQ      R12, R8
	DECQ      CX
	JNZ       arow

	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, R11
	JMP  ablock

atail:
	TESTQ R11, R11
	JZ    adone
	TAIL_MASK4
	MOVQ  $32, R11
	JMP   ablock4

adone:
	VZEROUPPER
	RET

// func sumRows8(o, m *float64, rows, cols int)
//
// Writes the column sums of the rows×cols matrix m to o (0 < rows,
// 0 < cols): each sum starts from +0 and adds the rows in ascending order,
// the sum its first operand. Columns go 32 at a time in four accumulators
// of eight lanes, so four independent chains run per row; the last 1–31
// run as one more block under the masks K1–K4 (all ones for whole blocks).
TEXT ·sumRows8(SB), NOSPLIT, $0-32
	MOVQ   o+0(FP), DI
	MOVQ   m+8(FP), SI
	MOVQ   rows+16(FP), R10
	MOVQ   cols+24(FP), R11
	MOVQ   R11, R12
	SHLQ   $3, R12
	KXNORB K1, K1, K1
	KXNORB K2, K2, K2
	KXNORB K3, K3, K3
	KXNORB K4, K4, K4

sblock:
	CMPQ R11, $32
	JLT  stail

sblock4:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, R8
	MOVQ   R10, CX

srow:
	VADDPD 0(R8), Z0, K1, Z0
	VADDPD 64(R8), Z1, K2, Z1
	VADDPD 128(R8), Z2, K3, Z2
	VADDPD 192(R8), Z3, K4, Z3
	ADDQ   R12, R8
	DECQ   CX
	JNZ    srow

	VMOVUPD Z0, K1, 0(DI)
	VMOVUPD Z1, K2, 64(DI)
	VMOVUPD Z2, K3, 128(DI)
	VMOVUPD Z3, K4, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, R11
	JMP     sblock

stail:
	TESTQ R11, R11
	JZ    sdone
	TAIL_MASK4
	MOVQ  $32, R11
	JMP   sblock4

sdone:
	VZEROUPPER
	RET
