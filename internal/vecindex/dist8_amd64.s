#include "textflag.h"

// func dist8first(q *[8]float64, slab []float64, bound float64) int
//
// One vector v gives d = q − v in two registers, s0..s3 = d_j² + d_{j+4}²
// (no FMA: each square is rounded before the add, as in scanRange), and
// four vectors' s registers A..D are reduced together: VHADDPD pairs
// s0+s1 and s2+s3 within each vector, VPERM2F128 lines the halves up
// vector by vector, and one VADDPD gives (s0+s1)+(s2+s3) for all four.
TEXT ·dist8first(SB), NOSPLIT, $0-48
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
