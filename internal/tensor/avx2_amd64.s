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
