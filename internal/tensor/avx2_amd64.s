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
