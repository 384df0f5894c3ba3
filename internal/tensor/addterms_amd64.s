#include "textflag.h"
#include "funcdata.h"

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

// The AVX-512 kernels. They use Z0–Z14, Z16–Z23 and K1–K7 only, and end
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
// matching lanes of the offset vector Z3 to val[DX…] and off[DX…]
// (512(R10) and R10, in mulRows8's frame), whole vectors: the lanes past the kept ones are
// never read. DX is at most 56 before a store, so the store stays inside
// the array. DX grows by the number kept.
#define COMPRESS \
	VCMPPD        $4, Z14, Z0, K6    \
	VCOMPRESSPD.Z Z0, K6, Z6         \
	VPCOMPRESSQ.Z Z3, K6, Z7         \
	VMOVUPD       Z6, 512(R10)(DX*8) \
	VMOVDQU64     Z7, (R10)(DX*8)    \
	KMOVB         K6, AX             \
	POPCNTL       AX, AX             \
	ADDQ          AX, DX

// TERM loads term CX of mulRows8's list: its value broadcast to Z4 and,
// in AX, the address of its b-row at the column block R14.
#define TERM \
	VBROADCASTSD 512(R10)(CX*8), Z4 \
	MOVQ         (R10)(CX*8), AX    \
	LEAQ         (R14)(AX*8), AX

// START(off, K, Zacc) starts the accumulator of one masked group: o's
// lanes at off(R9) under K, or +0 in the first block (K7 none).
#define START(off, K, Zacc) \
	KANDB     K, K7, K6 \
	VMOVUPD.Z off(R9), K6, Zacc

// MULADDK(off, K, Zacc, Zp) adds the term's product with b's lanes at
// off(AX) under K to Zacc: a separate multiply and add, as in the whole
// groups of mulRows8.
#define MULADDK(off, K, Zacc, Zp) \
	VMULPD.Z off(AX), Z4, K, Zp \
	VADDPD   Zp, Zacc, Zacc

// TAIL_MASK sets K1 to the low BX bits (0 < BX < 8), with CX and AX as
// scratch.
#define TAIL_MASK \
	MOVQ  BX, CX  \
	MOVL  $1, AX  \
	SHLL  CX, AX  \
	DECL  AX      \
	KMOVB AX, K1

// TAIL_MASK4(cnt) sets K1–K4 to bits 0–7, 8–15, 16–23 and 24–31 of the
// mask of the low cnt bits (0 ≤ cnt < 32), with CX and AX as scratch: the
// masks of a masked block of four eight-lane groups ending at column cnt.
#define TAIL_MASK4(cnt) \
	MOVQ  cnt, CX \
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

// func mulRows8(o, a, b *float64, rows, terms, n, lane, step int, first bool)
//
// One K-block of a wide product of MulABInto or MulATBInto: for each of
// rows output rows i of n columns, adds Σ_k a[i·lane+k·step]·b[k·n+j] over
// k < terms (1 to 64) to o[i·n+j] for every column j, in ascending k,
// skipping the zero a-elements; in the first block (first) each element
// starts from +0 instead of o, so every element of o is written, rows
// with no term included. A later block leaves a row with no term as it
// is.
//
// Per row, the gather packs the row's nonzero a-elements and their b-row
// offsets k·n into val and off, two 64-element arrays in the kernel's own
// frame (off at R10, val at 512(R10)): eight elements at a time, loaded
// whole when step is 1 (MulABInto: a slice of row i of a), else fetched
// with one VGATHERQPD at stride step (MulATBInto: column i of a), the last
// chunk masked to the terms left (K5), so no element past the row's last
// term is read. COMPRESS then keeps exactly the lanes Go's av != 0 keeps.
//
// The sum then goes 32 columns at a time in four ZMM accumulators of
// eight lanes (Z16–Z19), each started once, summed over the whole list and
// stored once. Every term is one broadcast, then a separate multiply and
// add per eight lanes, so each lane rounds exactly as the scalar
// c += av*b[j] does. There is deliberately no fused multiply-add. The
// last 1–31 columns run as one, two or four groups under the masks K1–K4,
// set once per call: a masked-off lane is neither read from b or o nor
// written. K7 is the mask of a whole group's start: all ones to load o,
// none in the first block, where the masked load leaves +0.
TEXT ·mulRows8(SB), 0, $1024-65
	NO_LOCAL_POINTERS
	MOVQ    o+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R12
	MOVQ    rows+24(FP), BX
	MOVQ    n+40(FP), R11
	MOVQ    lane+48(FP), R13
	SHLQ    $3, R13
	MOVQ    step+56(FP), R8
	LEAQ    0(SP), R10
	XORQ    AX, AX
	GATHER_INIT(R11, AX, Z10, Z2)
	GATHER_INIT(R8, AX, Z11, Z9)
	VPXORQ  Z14, Z14, Z14
	MOVQ    terms+32(FP), CX
	ANDQ    $7, CX
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX
	KMOVB   AX, K5
	MOVQ    R11, R9
	ANDQ    $31, R9
	TAIL_MASK4(R9)
	KXNORB  K7, K7, K7
	CMPB    first+64(FP), $0
	JEQ     row
	KXORB   K7, K7, K7

row:
	VMOVDQA64 Z10, Z3
	VMOVDQA64 Z11, Z8
	MOVQ      SI, R14
	MOVQ      terms+32(FP), CX
	XORQ      DX, DX
	CMPQ      step+56(FP), $1
	JNE       strided

contig:
	CMPQ    CX, $8
	JLT     contigtail
	VMOVUPD (R14), Z0
	COMPRESS
	VPADDQ  Z2, Z3, Z3
	ADDQ    $64, R14
	SUBQ    $8, CX
	JMP     contig

contigtail:
	TESTQ     CX, CX
	JZ        gathered
	VMOVUPD.Z (R14), K5, Z0
	COMPRESS
	JMP       gathered

strided:
	CMPQ       CX, $8
	JLT        stridedtail
	KXNORB     K6, K6, K6
	VPXORQ     Z0, Z0, Z0
	VGATHERQPD (R14)(Z8*8), K6, Z0
	COMPRESS
	VPADDQ     Z2, Z3, Z3
	VPADDQ     Z9, Z8, Z8
	SUBQ       $8, CX
	JMP        strided

stridedtail:
	TESTQ      CX, CX
	JZ         gathered
	KMOVB      K5, K6
	VPXORQ     Z0, Z0, Z0
	VGATHERQPD (R14)(Z8*8), K6, Z0
	COMPRESS

// DX terms are gathered. R9 walks the row of o, R14 the block's b rows
// and R8 counts the columns left.
gathered:
	TESTQ DX, DX
	JNZ   sum
	CMPB  first+64(FP), $0
	JEQ   nextrow

sum:
	MOVQ DI, R9
	MOVQ R12, R14
	MOVQ R11, R8

block:
	CMPQ      R8, $32
	JLT       rowtail
	VMOVUPD.Z 0(R9), K7, Z16
	VMOVUPD.Z 64(R9), K7, Z17
	VMOVUPD.Z 128(R9), K7, Z18
	VMOVUPD.Z 192(R9), K7, Z19
	XORQ      CX, CX
	JMP       terms4next

terms4:
	TERM
	VMULPD 0(AX), Z4, Z20
	VADDPD Z20, Z16, Z16
	VMULPD 64(AX), Z4, Z21
	VADDPD Z21, Z17, Z17
	VMULPD 128(AX), Z4, Z22
	VADDPD Z22, Z18, Z18
	VMULPD 192(AX), Z4, Z23
	VADDPD Z23, Z19, Z19
	INCQ   CX

terms4next:
	CMPQ    CX, DX
	JLT     terms4
	VMOVUPD Z16, 0(R9)
	VMOVUPD Z17, 64(R9)
	VMOVUPD Z18, 128(R9)
	VMOVUPD Z19, 192(R9)
	ADDQ    $256, R9
	ADDQ    $256, R14
	SUBQ    $32, R8
	JMP     block

// 0 ≤ R8 < 32 columns are left: up to 8 run as one group, up to 16 as
// two, more as four.
rowtail:
	TESTQ R8, R8
	JZ    nextrow
	CMPQ  R8, $8
	JLE   tail1
	CMPQ  R8, $16
	JLE   tail2
	START(0, K1, Z16)
	START(64, K2, Z17)
	START(128, K3, Z18)
	START(192, K4, Z19)
	XORQ  CX, CX
	JMP   tail4next

tail4:
	TERM
	MULADDK(0, K1, Z16, Z20)
	MULADDK(64, K2, Z17, Z21)
	MULADDK(128, K3, Z18, Z22)
	MULADDK(192, K4, Z19, Z23)
	INCQ  CX

tail4next:
	CMPQ    CX, DX
	JLT     tail4
	VMOVUPD Z16, K1, 0(R9)
	VMOVUPD Z17, K2, 64(R9)
	VMOVUPD Z18, K3, 128(R9)
	VMOVUPD Z19, K4, 192(R9)
	JMP     nextrow

tail2:
	START(0, K1, Z16)
	START(64, K2, Z17)
	XORQ  CX, CX
	JMP   tail2next

tail2term:
	TERM
	MULADDK(0, K1, Z16, Z20)
	MULADDK(64, K2, Z17, Z21)
	INCQ  CX

tail2next:
	CMPQ    CX, DX
	JLT     tail2term
	VMOVUPD Z16, K1, 0(R9)
	VMOVUPD Z17, K2, 64(R9)
	JMP     nextrow

tail1:
	START(0, K1, Z16)
	XORQ  CX, CX
	JMP   tail1next

tail1term:
	TERM
	MULADDK(0, K1, Z16, Z20)
	INCQ  CX

tail1next:
	CMPQ    CX, DX
	JLT     tail1term
	VMOVUPD Z16, K1, 0(R9)

nextrow:
	LEAQ (DI)(R11*8), DI
	ADDQ R13, SI
	DECQ BX
	JNZ  row

	VZEROUPPER
	RET

// NCOL(off, Zacc) adds the term of one narrow column to its accumulator:
// the a-elements Z0 times the column's b-element at off(R9), broadcast,
// added only in the lanes of K2. a is the first operand of the multiply
// and the accumulator of the add, as in mulRows8.
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
	TAIL_MASK4(R11)
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
	TAIL_MASK4(R11)
	MOVQ  $32, R11
	JMP   sblock4

sdone:
	VZEROUPPER
	RET
