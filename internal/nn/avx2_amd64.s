#include "textflag.h"

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
