//go:build amd64

#include "textflag.h"

// func axpyBlocksAVX2(dst, x *float64, alpha float64, blocks int)
//
// dst[i] += alpha*x[i] over blocks*8 float64 elements. Deliberately
// multiply-then-add (NOT fused): the float64 Axpy contract is bit-exact
// agreement with the scalar kernel at every dispatch level, which FMA's
// single rounding would break.
TEXT ·axpyBlocksAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	VBROADCASTSD alpha+16(FP), Y5
	MOVQ         blocks+24(FP), CX

loop:
	VMULPD  (SI), Y5, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VMULPD  32(SI), Y5, Y1
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop

	VZEROUPPER
	RET

// func axpyAccBlocksAVX2(dst, x, acc *float64, alpha float64, blocks int)
//
// dst[i] += alpha*x[i] and acc[i] += x[i] over blocks*8 float64 elements,
// each x block loaded once. The multiply and the adds stay separate (not
// fused), so both outputs are bit-identical to two scalar Axpy calls.
TEXT ·axpyAccBlocksAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         acc+16(FP), DX
	VBROADCASTSD alpha+24(FP), Y5
	MOVQ         blocks+32(FP), CX

loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMULPD  Y0, Y5, Y2
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	VADDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DX)
	VMULPD  Y1, Y5, Y3
	VADDPD  32(DI), Y3, Y3
	VMOVUPD Y3, 32(DI)
	VADDPD  32(DX), Y1, Y1
	VMOVUPD Y1, 32(DX)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $64, DX
	DECQ    CX
	JNZ     loop

	VZEROUPPER
	RET

// func scaleBlocksAVX2(a *float64, alpha float64, blocks int)
//
// a[i] *= alpha over blocks*8 float64 elements. One independent multiply
// per element: bit-identical to the scalar kernel.
TEXT ·scaleBlocksAVX2(SB), NOSPLIT, $0-24
	MOVQ         a+0(FP), SI
	VBROADCASTSD alpha+8(FP), Y5
	MOVQ         blocks+16(FP), CX

loop:
	VMULPD  (SI), Y5, Y0
	VMOVUPD Y0, (SI)
	VMULPD  32(SI), Y5, Y1
	VMOVUPD Y1, 32(SI)
	ADDQ    $64, SI
	DECQ    CX
	JNZ     loop

	VZEROUPPER
	RET

// func addBlocksAVX2(dst, a, b *float64, blocks int)
//
// dst[i] = a[i] + b[i] over blocks*8 float64 elements. Both sources are
// loaded before the store, so dst aliasing a or b keeps the scalar
// semantics; one independent add per element is bit-identical to the
// scalar kernel.
TEXT ·addBlocksAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ blocks+24(FP), CX

loop:
	VMOVUPD (SI), Y0
	VADDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	VMOVUPD 32(SI), Y1
	VADDPD  32(DX), Y1, Y1
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop

	VZEROUPPER
	RET
