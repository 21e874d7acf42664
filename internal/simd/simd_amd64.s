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

// func addRows4AVX2(orow, b0, b1, b2, b3 []float64, c0, c1, c2, c3 float64)
//
// No FMA: each product is rounded before it is added, as in the Go loop.
TEXT ·addRows4AVX2(SB), NOSPLIT, $0-152
	MOVQ orow_base+0(FP), DI
	MOVQ orow_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSD c0+120(FP), Y0
	VBROADCASTSD c1+128(FP), Y1
	VBROADCASTSD c2+136(FP), Y2
	VBROADCASTSD c3+144(FP), Y3
	SHRQ $2, CX
	JZ   done
	XORQ AX, AX

loop:
	VMULPD (R8)(AX*8), Y0, Y4  // c0·b0
	VMULPD (R9)(AX*8), Y1, Y5  // c1·b1
	VADDPD Y5, Y4, Y4
	VMULPD (R10)(AX*8), Y2, Y5 // c2·b2
	VADDPD Y5, Y4, Y4
	VMULPD (R11)(AX*8), Y3, Y5 // c3·b3
	VADDPD Y5, Y4, Y4
	VADDPD (DI)(AX*8), Y4, Y4  // orow + sum
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET

// func addRowAVX2(orow, b []float64, c float64)
TEXT ·addRowAVX2(SB), NOSPLIT, $0-56
	MOVQ orow_base+0(FP), DI
	MOVQ orow_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VBROADCASTSD c+48(FP), Y0
	SHRQ $2, CX
	JZ   rowdone
	XORQ AX, AX

rowloop:
	VMULPD  (SI)(AX*8), Y0, Y1 // c·b
	VADDPD  (DI)(AX*8), Y1, Y1 // orow + c·b
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	DECQ    CX
	JNZ     rowloop

rowdone:
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
