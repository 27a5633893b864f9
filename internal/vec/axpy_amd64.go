//go:build amd64

package vec

import "github.com/retrodb/retro/internal/cpu"

// Elementwise float64 kernels in axpy_amd64.s, routed through the same
// runtime dispatch as dot. All four vectorise the identical independent
// per-element operation — multiply-then-add, never fused — so every
// dispatch level is bit-identical to the scalar kernel (a contract the
// elementwise tests assert, unlike the reassociating reductions).

//go:noescape
func axpyBlocksAVX2(dst, x *float64, alpha float64, blocks int)

//go:noescape
func axpyAccBlocksAVX2(dst, x, acc *float64, alpha float64, blocks int)

//go:noescape
func scaleBlocksAVX2(a *float64, alpha float64, blocks int)

//go:noescape
func addBlocksAVX2(dst, a, b *float64, blocks int)

func axpy(dst []float64, alpha float64, x []float64) {
	if cpu.Active() < cpu.AVX2 {
		axpyGeneric(dst, alpha, x)
		return
	}
	n := len(dst)
	if blocks := n / 8; blocks > 0 {
		axpyBlocksAVX2(&dst[0], &x[0], alpha, blocks)
	}
	for i := n &^ 7; i < n; i++ {
		dst[i] += alpha * x[i]
	}
}

func axpyAcc(dst []float64, alpha float64, x, acc []float64) {
	if cpu.Active() < cpu.AVX2 {
		axpyAccGeneric(dst, alpha, x, acc)
		return
	}
	n := len(dst)
	if blocks := n / 8; blocks > 0 {
		axpyAccBlocksAVX2(&dst[0], &x[0], &acc[0], alpha, blocks)
	}
	for i := n &^ 7; i < n; i++ {
		dst[i] += alpha * x[i]
		acc[i] += x[i]
	}
}

func scale(a []float64, alpha float64) {
	if cpu.Active() < cpu.AVX2 {
		scaleGeneric(a, alpha)
		return
	}
	n := len(a)
	if blocks := n / 8; blocks > 0 {
		scaleBlocksAVX2(&a[0], alpha, blocks)
	}
	for i := n &^ 7; i < n; i++ {
		a[i] *= alpha
	}
}

func add(dst, a, b []float64) {
	if cpu.Active() < cpu.AVX2 {
		addGeneric(dst, a, b)
		return
	}
	n := len(dst)
	if blocks := n / 8; blocks > 0 {
		addBlocksAVX2(&dst[0], &a[0], &b[0], blocks)
	}
	for i := n &^ 7; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}
