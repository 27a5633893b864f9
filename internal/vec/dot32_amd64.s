//go:build amd64

#include "textflag.h"

// func dot32BlocksFMA(a, b *float32, blocks int) float64
//
// Sums a[i]*b[i] over blocks*8 float32 elements. Each 4-lane float32
// quarter-block is widened to float64 in registers (VCVTPS2PD) and fused
// into one of two independent float64 accumulators (Y6, Y7) — the loads
// move half the bytes of the float64 kernel while the arithmetic keeps
// float64 accuracy. The pairwise horizontal reduction fixes the
// summation order, so the result is deterministic.
TEXT ·dot32BlocksFMA(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   blocks+16(FP), CX
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VCVTPS2PD   (SI), Y0
	VCVTPS2PD   (DI), Y2
	VFMADD231PD Y2, Y0, Y6
	VCVTPS2PD   16(SI), Y1
	VCVTPS2PD   16(DI), Y3
	VFMADD231PD Y3, Y1, Y7
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        CX
	JNZ         loop

	VADDPD       Y7, Y6, Y6
	VEXTRACTF128 $1, Y6, X0
	VADDPD       X0, X6, X6
	VPERMILPD    $1, X6, X0
	VADDSD       X0, X6, X6
	VZEROUPPER
	MOVSD        X6, ret+24(FP)
	RET
