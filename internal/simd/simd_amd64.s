#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// COEFS4 loads the block's coefficients c[p], c[p+s], c[p+2s] and c[p+3s]
// from R12 (s, in bytes, in BX) into X0..X3 and moves R12 four on. When all
// four equal zero (EQ_OQ: ±0 do, a NaN does not) it jumps to skip;
// otherwise it broadcasts them to Y0..Y3 and points R14 and R10 at rows p+2
// and p+3 of b (row p at R11, a row's bytes in R9).
#define COEFS4(skip) \
	VMOVSD       (R12), X0; \
	VMOVSD       (R12)(BX*1), X1; \
	LEAQ         (R12)(BX*2), R12; \
	VMOVSD       (R12), X2; \
	VMOVSD       (R12)(BX*1), X3; \
	LEAQ         (R12)(BX*2), R12; \
	VUNPCKLPD    X1, X0, X4; \
	VUNPCKLPD    X3, X2, X5; \
	VINSERTF128  $1, X5, Y4, Y4; \
	VCMPPD       $0x00, Y7, Y4, Y4; \
	VMOVMSKPD    Y4, AX; \
	CMPQ         AX, $15; \
	JEQ          skip; \
	VBROADCASTSD X0, Y0; \
	VBROADCASTSD X1, Y1; \
	VBROADCASTSD X2, Y2; \
	VBROADCASTSD X3, Y3; \
	LEAQ         (R11)(R9*2), R14; \
	LEAQ         (R14)(R9*1), R10

// ROWS4 adds ((c0·b_p + c1·b_{p+1}) + c2·b_{p+2}) + c3·b_{p+3}, over the
// vector at byte offset off of the tile, to acc.
#define ROWS4(off, acc) \
	VMULPD off(R11), Y0, Y4; \
	VMULPD off(R11)(R9*1), Y1, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD off(R14), Y2, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD off(R10), Y3, Y5; \
	VADDPD Y5, Y4, Y4; \
	VADDPD Y4, acc, acc

// COEF1 loads c[p] from R12 into X0 and moves R12 one on. When it equals
// zero (EQ_OQ) it jumps to skip; otherwise it broadcasts it to Y0.
#define COEF1(skip) \
	VMOVSD       (R12), X0; \
	ADDQ         BX, R12; \
	VCMPSD       $0x00, X7, X0, X4; \
	VMOVQ        X4, AX; \
	TESTQ        AX, AX; \
	JNZ          skip; \
	VBROADCASTSD X0, Y0

// ROW1 adds c·b_p, over the vector at byte offset off of the tile, to acc.
#define ROW1(off, acc) \
	VMULPD off(R11), Y0, Y4; \
	VADDPD Y4, acc, acc

// func addScaledRowsAVX2(o, b, c []float64, k, stride int)
//
// Column tiles of four vectors, then of one, cover o's whole vectors. A
// tile's sums stay in Y8..Y11 over all k rows of b and are stored once:
// each block of four rows adds ((c0·b0 + c1·b1) + c2·b2) + c3·b3, then each
// of the last k mod 4 rows adds c·b, and a block of zero coefficients, or a
// last row's zero coefficient, is skipped. Every element sees the Go loop's
// operations in its order. No FMA.
TEXT ·addScaledRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ   o_base+0(FP), DI
	MOVQ   o_len+8(FP), CX
	MOVQ   b_base+24(FP), R8
	MOVQ   c_base+48(FP), SI
	MOVQ   k+72(FP), DX
	MOVQ   stride+80(FP), BX
	SHLQ   $3, BX // coefficient stride, in bytes
	MOVQ   CX, R9
	SHLQ   $3, R9 // a row of b, in bytes
	SHRQ   $2, CX // o's whole vectors
	VXORPD Y7, Y7, Y7

tile4:
	CMPQ    CX, $4
	JLT     tile1
	VMOVUPD 0(DI), Y8
	VMOVUPD 32(DI), Y9
	VMOVUPD 64(DI), Y10
	VMOVUPD 96(DI), Y11
	MOVQ    R8, R11 // row p of b, at the tile
	MOVQ    SI, R12 // c_p
	MOVQ    DX, R13
	SHRQ    $2, R13 // blocks of four rows
	JZ      t4rest

t4block:
	COEFS4(t4skip)
	ROWS4(0, Y8)
	ROWS4(32, Y9)
	ROWS4(64, Y10)
	ROWS4(96, Y11)

t4skip:
	LEAQ (R11)(R9*4), R11
	DECQ R13
	JNZ  t4block

t4rest:
	MOVQ DX, R13
	ANDQ $3, R13
	JZ   t4store

t4row:
	COEF1(t4next)
	ROW1(0, Y8)
	ROW1(32, Y9)
	ROW1(64, Y10)
	ROW1(96, Y11)

t4next:
	ADDQ R9, R11
	DECQ R13
	JNZ  t4row

t4store:
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	SUBQ    $4, CX
	JMP     tile4

tile1:
	TESTQ   CX, CX
	JZ      rowsdone
	VMOVUPD 0(DI), Y8
	MOVQ    R8, R11
	MOVQ    SI, R12
	MOVQ    DX, R13
	SHRQ    $2, R13
	JZ      t1rest

t1block:
	COEFS4(t1skip)
	ROWS4(0, Y8)

t1skip:
	LEAQ (R11)(R9*4), R11
	DECQ R13
	JNZ  t1block

t1rest:
	MOVQ DX, R13
	ANDQ $3, R13
	JZ   t1store

t1row:
	COEF1(t1next)
	ROW1(0, Y8)

t1next:
	ADDQ R9, R11
	DECQ R13
	JNZ  t1row

t1store:
	VMOVUPD Y8, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    CX
	JMP     tile1

rowsdone:
	VZEROUPPER
	RET

// func dotPairs4AVX2(sums *[8]float64, a, b0, b1, b2, b3 []float64)
//
// Y0 holds (s0, t0, s1, t1) and Y1 (s2, t2, s3, t3): one lane per running
// sum of the Go loop, so a lane sees that sum's products in the same order.
// A pair of a, (a[p], a[p+1]), is broadcast to both halves; b_j[p:p+2] fills
// one half. No FMA.
TEXT ·dotPairs4AVX2(SB), NOSPLIT, $0-128
	MOVQ sums+0(FP), DI
	MOVQ a_base+8(FP), SI
	MOVQ a_len+16(FP), CX
	MOVQ b0_base+32(FP), R8
	MOVQ b1_base+56(FP), R9
	MOVQ b2_base+80(FP), R10
	MOVQ b3_base+104(FP), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SHRQ $1, CX
	JZ   pairsdone
	XORQ AX, AX

pairsloop:
	VBROADCASTF128 (SI)(AX*8), Y2          // a[p] a[p+1] a[p] a[p+1]
	VMOVUPD        (R8)(AX*8), X3          // b0[p] b0[p+1]
	VINSERTF128    $1, (R9)(AX*8), Y3, Y3  // b1[p] b1[p+1]
	VMULPD         Y2, Y3, Y3
	VADDPD         Y3, Y0, Y0
	VMOVUPD        (R10)(AX*8), X4         // b2[p] b2[p+1]
	VINSERTF128    $1, (R11)(AX*8), Y4, Y4 // b3[p] b3[p+1]
	VMULPD         Y2, Y4, Y4
	VADDPD         Y4, Y1, Y1
	ADDQ           $2, AX
	DECQ           CX
	JNZ            pairsloop

pairsdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func dotPairs4AtAVX2(sums *[8]float64, a, b0, b1, b2, b3 []float64, pairs []int) int
//
// dotPairs4AVX2's step, at the pair each entry of pairs starts rather than
// at every pair in turn. A pair that does not fit in a (p+1 at or past
// len(a), or p below zero) ends the loop before it is read, and the result,
// the pairs done, tells the caller.
TEXT ·dotPairs4AtAVX2(SB), NOSPLIT, $0-160
	MOVQ sums+0(FP), DI
	MOVQ a_base+8(FP), SI
	MOVQ b0_base+32(FP), R8
	MOVQ b1_base+56(FP), R9
	MOVQ b2_base+80(FP), R10
	MOVQ b3_base+104(FP), R11
	MOVQ pairs_base+128(FP), DX
	MOVQ pairs_len+136(FP), CX
	MOVQ a_len+16(FP), R12
	DECQ R12 // a pair starts below len(a)-1
	MOVQ CX, R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	TESTQ CX, CX
	JZ    atdone

atloop:
	MOVQ           (DX), AX
	CMPQ           AX, R12 // unsigned: a negative p is past it too
	JAE            atdone
	VBROADCASTF128 (SI)(AX*8), Y2          // a[p] a[p+1] a[p] a[p+1]
	VMOVUPD        (R8)(AX*8), X3          // b0[p] b0[p+1]
	VINSERTF128    $1, (R9)(AX*8), Y3, Y3  // b1[p] b1[p+1]
	VMULPD         Y2, Y3, Y3
	VADDPD         Y3, Y0, Y0
	VMOVUPD        (R10)(AX*8), X4         // b2[p] b2[p+1]
	VINSERTF128    $1, (R11)(AX*8), Y4, Y4 // b3[p] b3[p+1]
	VMULPD         Y2, Y4, Y4
	VADDPD         Y4, Y1, Y1
	ADDQ           $8, DX
	DECQ           CX
	JNZ            atloop

atdone:
	SUBQ    CX, R13 // the pairs done
	MOVQ    R13, ret+152(FP)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func leakyAVX2(dst, x, g []float64, alpha float64)
//
// The slope is selected by mask, not by branch: x > 0 (ordered, so a NaN
// selects alpha, as the Go loop's comparison does) picks 1, anything else
// alpha, and the product with g is rounded once, as in the Go loop.
TEXT ·leakyAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ g_base+48(FP), DX
	VBROADCASTSD alpha+72(FP), Y0
	MOVQ $0x3ff0000000000000, AX // 1.0
	VMOVQ AX, X1
	VBROADCASTSD X1, Y1
	VXORPD Y2, Y2, Y2
	SHRQ $2, CX
	JZ   leakydone
	XORQ AX, AX

leakyloop:
	VMOVUPD   (SI)(AX*8), Y3
	VCMPPD    $0x1e, Y2, Y3, Y4 // GT_OQ: x > 0
	VBLENDVPD Y4, Y1, Y0, Y5    // x > 0 ? 1 : alpha
	VMULPD    (DX)(AX*8), Y5, Y5
	VMOVUPD   Y5, (DI)(AX*8)
	ADDQ      $4, AX
	DECQ      CX
	JNZ       leakyloop

leakydone:
	VZEROUPPER
	RET

// func maxPoolAVX2(dst []float64, at []int, x []float64, base, offs []int, last int) int
//
// One group is four windows, one per lane: BX, R11, R12 and R13 point at
// their corners in x, Y0 holds their bases, Y4 the running maxima and Y1
// the offsets they came from. An offset's four elements are broadcast and
// blended into one vector (loads and blends, no shuffles). VMAXPD's
// src1 > src2 ? src1 : src2, with v as src1, is the Go loop's update of the
// running maximum, NaN and signed zeros included (an ordered comparison, a
// NaN on either side keeps best); the mask of the same comparison, GT_OQ,
// selects the offset. A base above last, or below zero, ends the loop
// before its group is read, and the result, the windows done, tells the
// caller.
TEXT ·maxPoolAVX2(SB), NOSPLIT, $0-136
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+48(FP), SI
	MOVQ base_base+72(FP), R8
	MOVQ offs_base+96(FP), R9
	MOVQ offs_len+104(FP), R10
	XORQ AX, AX // the group's first window
	SHRQ $2, CX
	JZ   pooldone

poolgroup:
	VMOVDQU      (R8)(AX*8), Y0 // base[i..i+3]
	MOVQ         (R8)(AX*8), BX
	MOVQ         8(R8)(AX*8), R11
	MOVQ         16(R8)(AX*8), R12
	MOVQ         24(R8)(AX*8), R13
	MOVQ         last+120(FP), DX
	CMPQ         BX, DX // unsigned: a negative base is above last too
	JA           pooldone
	CMPQ         R11, DX
	JA           pooldone
	CMPQ         R12, DX
	JA           pooldone
	CMPQ         R13, DX
	JA           pooldone
	LEAQ         (SI)(BX*8), BX
	LEAQ         (SI)(R11*8), R11
	LEAQ         (SI)(R12*8), R12
	LEAQ         (SI)(R13*8), R13
	MOVQ         (R9), DX        // offs[0]
	VPBROADCASTQ (R9), Y1
	VBROADCASTSD (BX)(DX*8), Y4
	VBROADCASTSD (R11)(DX*8), Y9
	VBLENDPD     $2, Y9, Y4, Y4
	VBROADCASTSD (R12)(DX*8), Y9
	VBLENDPD     $4, Y9, Y4, Y4
	VBROADCASTSD (R13)(DX*8), Y9
	VBLENDPD     $8, Y9, Y4, Y4  // best: the windows' first elements
	MOVQ         $1, DI

pooloff:
	CMPQ         DI, R10
	JGE          poolstore
	MOVQ         (R9)(DI*8), DX  // off
	VPBROADCASTQ (R9)(DI*8), Y5
	VBROADCASTSD (BX)(DX*8), Y6
	VBROADCASTSD (R11)(DX*8), Y9
	VBLENDPD     $2, Y9, Y6, Y6
	VBROADCASTSD (R12)(DX*8), Y9
	VBLENDPD     $4, Y9, Y6, Y6
	VBROADCASTSD (R13)(DX*8), Y9
	VBLENDPD     $8, Y9, Y6, Y6  // v
	VCMPPD       $0x1e, Y4, Y6, Y7 // GT_OQ: v > best
	VMAXPD       Y4, Y6, Y4      // best = v > best ? v : best
	VBLENDVPD    Y7, Y5, Y1, Y1  // its offset likewise
	INCQ         DI
	JMP          pooloff

poolstore:
	MOVQ    dst_base+0(FP), DI
	VMOVUPD Y4, (DI)(AX*8)
	MOVQ    at_base+24(FP), DX
	TESTQ   DX, DX
	JZ      poolnext // at is nil
	VPADDQ  Y1, Y0, Y1
	VMOVDQU Y1, (DX)(AX*8)

poolnext:
	ADDQ $4, AX
	DECQ CX
	JNZ  poolgroup

pooldone:
	MOVQ AX, ret+128(FP)
	VZEROUPPER
	RET

// nonZeroLanes lists, for each 4-bit mask, the lanes of its set bits in
// ascending order (unused entries 0), and nonZeroCount how many there are.
DATA nonZeroLanes<>+0(SB)/8, $0
DATA nonZeroLanes<>+8(SB)/8, $0
DATA nonZeroLanes<>+16(SB)/8, $0
DATA nonZeroLanes<>+24(SB)/8, $0
DATA nonZeroLanes<>+32(SB)/8, $0
DATA nonZeroLanes<>+40(SB)/8, $0
DATA nonZeroLanes<>+48(SB)/8, $0
DATA nonZeroLanes<>+56(SB)/8, $0
DATA nonZeroLanes<>+64(SB)/8, $1
DATA nonZeroLanes<>+72(SB)/8, $0
DATA nonZeroLanes<>+80(SB)/8, $0
DATA nonZeroLanes<>+88(SB)/8, $0
DATA nonZeroLanes<>+96(SB)/8, $0
DATA nonZeroLanes<>+104(SB)/8, $1
DATA nonZeroLanes<>+112(SB)/8, $0
DATA nonZeroLanes<>+120(SB)/8, $0
DATA nonZeroLanes<>+128(SB)/8, $2
DATA nonZeroLanes<>+136(SB)/8, $0
DATA nonZeroLanes<>+144(SB)/8, $0
DATA nonZeroLanes<>+152(SB)/8, $0
DATA nonZeroLanes<>+160(SB)/8, $0
DATA nonZeroLanes<>+168(SB)/8, $2
DATA nonZeroLanes<>+176(SB)/8, $0
DATA nonZeroLanes<>+184(SB)/8, $0
DATA nonZeroLanes<>+192(SB)/8, $1
DATA nonZeroLanes<>+200(SB)/8, $2
DATA nonZeroLanes<>+208(SB)/8, $0
DATA nonZeroLanes<>+216(SB)/8, $0
DATA nonZeroLanes<>+224(SB)/8, $0
DATA nonZeroLanes<>+232(SB)/8, $1
DATA nonZeroLanes<>+240(SB)/8, $2
DATA nonZeroLanes<>+248(SB)/8, $0
DATA nonZeroLanes<>+256(SB)/8, $3
DATA nonZeroLanes<>+264(SB)/8, $0
DATA nonZeroLanes<>+272(SB)/8, $0
DATA nonZeroLanes<>+280(SB)/8, $0
DATA nonZeroLanes<>+288(SB)/8, $0
DATA nonZeroLanes<>+296(SB)/8, $3
DATA nonZeroLanes<>+304(SB)/8, $0
DATA nonZeroLanes<>+312(SB)/8, $0
DATA nonZeroLanes<>+320(SB)/8, $1
DATA nonZeroLanes<>+328(SB)/8, $3
DATA nonZeroLanes<>+336(SB)/8, $0
DATA nonZeroLanes<>+344(SB)/8, $0
DATA nonZeroLanes<>+352(SB)/8, $0
DATA nonZeroLanes<>+360(SB)/8, $1
DATA nonZeroLanes<>+368(SB)/8, $3
DATA nonZeroLanes<>+376(SB)/8, $0
DATA nonZeroLanes<>+384(SB)/8, $2
DATA nonZeroLanes<>+392(SB)/8, $3
DATA nonZeroLanes<>+400(SB)/8, $0
DATA nonZeroLanes<>+408(SB)/8, $0
DATA nonZeroLanes<>+416(SB)/8, $0
DATA nonZeroLanes<>+424(SB)/8, $2
DATA nonZeroLanes<>+432(SB)/8, $3
DATA nonZeroLanes<>+440(SB)/8, $0
DATA nonZeroLanes<>+448(SB)/8, $1
DATA nonZeroLanes<>+456(SB)/8, $2
DATA nonZeroLanes<>+464(SB)/8, $3
DATA nonZeroLanes<>+472(SB)/8, $0
DATA nonZeroLanes<>+480(SB)/8, $0
DATA nonZeroLanes<>+488(SB)/8, $1
DATA nonZeroLanes<>+496(SB)/8, $2
DATA nonZeroLanes<>+504(SB)/8, $3
GLOBL nonZeroLanes<>(SB), RODATA|NOPTR, $512
DATA nonZeroCount<>+0(SB)/1, $0
DATA nonZeroCount<>+1(SB)/1, $1
DATA nonZeroCount<>+2(SB)/1, $1
DATA nonZeroCount<>+3(SB)/1, $2
DATA nonZeroCount<>+4(SB)/1, $1
DATA nonZeroCount<>+5(SB)/1, $2
DATA nonZeroCount<>+6(SB)/1, $2
DATA nonZeroCount<>+7(SB)/1, $3
DATA nonZeroCount<>+8(SB)/1, $1
DATA nonZeroCount<>+9(SB)/1, $2
DATA nonZeroCount<>+10(SB)/1, $2
DATA nonZeroCount<>+11(SB)/1, $3
DATA nonZeroCount<>+12(SB)/1, $2
DATA nonZeroCount<>+13(SB)/1, $3
DATA nonZeroCount<>+14(SB)/1, $3
DATA nonZeroCount<>+15(SB)/1, $4
GLOBL nonZeroCount<>(SB), RODATA|NOPTR, $16

// func nonZeroAVX2(idx []int, x []float64) int
//
// Four elements at a time: NEQ_UQ (unordered or not equal, so a NaN counts
// and ±0 do not, as x != 0 in Go) gives a 4-bit mask; the mask's lane list
// plus the group's position is stored at idx[n] in one 32-byte store, and n
// moves on by the mask's count. n is at most the group's position, so the
// store stays inside idx[:len(x)].
TEXT ·nonZeroAVX2(SB), NOSPLIT, $0-56
	MOVQ idx_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	LEAQ nonZeroLanes<>(SB), R8
	LEAQ nonZeroCount<>(SB), R9
	XORQ BX, BX // n
	SHRQ $2, CX
	JZ   nzdone
	XORQ AX, AX // the group's position
	VXORPD Y0, Y0, Y0
	MOVQ  $4, DX
	VMOVQ DX, X1
	VPBROADCASTQ X1, Y1 // 4, 4, 4, 4
	VPXOR Y2, Y2, Y2    // the group's position in every lane

nzloop:
	VCMPPD    $0x04, (SI)(AX*8), Y0, Y3 // NEQ_UQ: x != 0
	VMOVMSKPD Y3, DX
	MOVQ      DX, R10
	SHLQ      $5, R10
	VPADDQ    (R8)(R10*1), Y2, Y4
	VMOVDQU   Y4, (DI)(BX*8)
	MOVBQZX   (R9)(DX*1), DX
	ADDQ      DX, BX
	VPADDQ    Y1, Y2, Y2
	ADDQ      $4, AX
	DECQ      CX
	JNZ       nzloop

nzdone:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// func adamAVX2(w, m, v, g []float64, decay, b1, nb1, b2, nb2, lrc1, ic2, eps float64)
//
// Per element, in the Go loop's order: g' = g + decay·w; m = b1·m + nb1·g';
// v = b2·v + (nb2·g')·g'; w = w − (m·lrc1)/(√(v·ic2) + eps). No FMA, and
// VSQRTPD and VDIVPD round correctly, as math.Sqrt and / do.
TEXT ·adamAVX2(SB), NOSPLIT, $0-160
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ m_base+24(FP), SI
	MOVQ v_base+48(FP), BX
	MOVQ g_base+72(FP), DX
	VBROADCASTSD decay+96(FP), Y8
	VBROADCASTSD b1+104(FP), Y9
	VBROADCASTSD nb1+112(FP), Y10
	VBROADCASTSD b2+120(FP), Y11
	VBROADCASTSD nb2+128(FP), Y12
	VBROADCASTSD lrc1+136(FP), Y13
	VBROADCASTSD ic2+144(FP), Y14
	VBROADCASTSD eps+152(FP), Y15
	SHRQ $2, CX
	JZ   adamdone
	XORQ AX, AX

adamloop:
	VMOVUPD (DI)(AX*8), Y0     // w
	VMULPD  Y0, Y8, Y1         // decay·w
	VADDPD  (DX)(AX*8), Y1, Y1 // g' = g + decay·w
	VMULPD  (SI)(AX*8), Y9, Y2 // b1·m
	VMULPD  Y1, Y10, Y3        // nb1·g'
	VADDPD  Y3, Y2, Y2         // m
	VMOVUPD Y2, (SI)(AX*8)
	VMULPD  (BX)(AX*8), Y11, Y4 // b2·v
	VMULPD  Y1, Y12, Y5         // nb2·g'
	VMULPD  Y1, Y5, Y5          // (nb2·g')·g'
	VADDPD  Y5, Y4, Y4          // v
	VMOVUPD Y4, (BX)(AX*8)
	VMULPD  Y4, Y14, Y4 // v·ic2
	VSQRTPD Y4, Y4
	VADDPD  Y15, Y4, Y4 // √(v·ic2) + eps
	VMULPD  Y2, Y13, Y2 // m·lrc1
	VDIVPD  Y4, Y2, Y2  // (m·lrc1)/(√(v·ic2) + eps)
	VSUBPD  Y2, Y0, Y0  // w − …
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	DECQ    CX
	JNZ     adamloop

adamdone:
	VZEROUPPER
	RET

// func dist8FirstAVX2(q *[8]float64, slab []float64, bound float64) int
//
// One vector v gives d = q − v in two registers, s0..s3 = d_j² + d_{j+4}²
// (no FMA: each square is rounded before the add, as in scanRange), and
// four vectors' s registers A..D are reduced together: VHADDPD pairs
// s0+s1 and s2+s3 within each vector, VPERM2F128 lines the halves up
// vector by vector, and one VADDPD gives (s0+s1)+(s2+s3) for all four.
TEXT ·dist8FirstAVX2(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), AX
	MOVQ slab_base+8(FP), SI
	MOVQ slab_len+16(FP), CX
	VMOVUPD (AX), Y0             // q0..q3
	VMOVUPD 32(AX), Y1           // q4..q7
	VBROADCASTSD bound+32(FP), Y15
	SHRQ $5, CX                  // whole groups of four vectors
	JZ   none
	XORQ DX, DX                  // index of the group's first vector

loop:
	VSUBPD (SI), Y0, Y2
	VSUBPD 32(SI), Y1, Y3
	VMULPD Y2, Y2, Y2
	VMULPD Y3, Y3, Y3
	VADDPD Y3, Y2, Y2            // A: s0..s3 of vector 0
	VSUBPD 64(SI), Y0, Y4
	VSUBPD 96(SI), Y1, Y5
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VADDPD Y5, Y4, Y4            // B
	VSUBPD 128(SI), Y0, Y6
	VSUBPD 160(SI), Y1, Y7
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VADDPD Y7, Y6, Y6            // C
	VSUBPD 192(SI), Y0, Y8
	VSUBPD 224(SI), Y1, Y9
	VMULPD Y8, Y8, Y8
	VMULPD Y9, Y9, Y9
	VADDPD Y9, Y8, Y8            // D
	VHADDPD Y4, Y2, Y2           // A0+A1, B0+B1, A2+A3, B2+B3
	VHADDPD Y8, Y6, Y6           // C0+C1, D0+D1, C2+C3, D2+D3
	VPERM2F128 $0x20, Y6, Y2, Y3 // s0+s1 of A, B, C, D
	VPERM2F128 $0x31, Y6, Y2, Y4 // s2+s3 of A, B, C, D
	VADDPD Y4, Y3, Y3            // the four distances
	VCMPPD $0x11, Y15, Y3, Y3    // distance < bound, LT_OQ
	VMOVMSKPD Y3, BX
	TESTL BX, BX
	JNZ  found
	ADDQ $256, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  loop

none:
	MOVQ $-1, ret+40(FP)
	VZEROUPPER
	RET

found:
	BSFL BX, BX                  // lowest lane: the first qualifying vector
	ADDQ BX, DX
	MOVQ DX, ret+40(FP)
	VZEROUPPER
	RET
