// Float32 kernels for the serving store. The serving pipeline holds its
// matrix and norms as float32 (snapshots already round to float32 on
// disk, so the narrower type loses nothing after one save/load cycle and
// halves memory traffic on the distance kernels). The reductions — Dot32
// and Norm32 — accumulate in float64, so the returned scores stay within
// ulps of the float64 kernels on the same (float32-rounded) inputs.
// Normalize32 rounds per element; Widen and Narrow cross the store
// boundary.
//
// On amd64 with AVX2+FMA Dot32 widens with VCVTPS2PD in registers and
// fuses into float64 FMA accumulators (see dot32_amd64.s): half the
// memory traffic of the float64 kernel with float64-grade accumulation.
package vec

import (
	"fmt"
	"math"
)

// Dot32 returns the inner product of a and b, accumulated in float64.
// It panics if the lengths differ.
func Dot32(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot32 length mismatch %d != %d", len(a), len(b)))
	}
	return dot32(a, b)
}

// dot32Generic is the portable kernel and the reference the assembly is
// property-tested against. Four independent float64 accumulators, same
// pipelining rationale as dotGeneric.
func dot32Generic(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += float64(a[0]) * float64(b[0])
		s1 += float64(a[1]) * float64(b[1])
		s2 += float64(a[2]) * float64(b[2])
		s3 += float64(a[3]) * float64(b[3])
		a, b = a[4:], b[4:]
	}
	for i := range a {
		s0 += float64(a[i]) * float64(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm32 returns the Euclidean (L2) norm of a, accumulated in float64.
func Norm32(a []float32) float64 {
	return math.Sqrt(Dot32(a, a))
}

// Normalize32 scales a to unit L2 norm in place (norm computed in
// float64, applied as one float32 multiply per element) and returns the
// original norm. A zero vector is left unchanged and 0 is returned.
func Normalize32(a []float32) float64 {
	n := Norm32(a)
	if n == 0 {
		return 0
	}
	inv := float32(1 / n)
	for i := range a {
		a[i] *= inv
	}
	return n
}

// Widen copies the float32 vector a into dst, which must have the same
// length, and returns dst. Widening is exact.
func Widen(dst []float64, a []float32) []float64 {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("vec: Widen length mismatch %d != %d", len(dst), len(a)))
	}
	for i, v := range a {
		dst[i] = float64(v)
	}
	return dst
}

// Narrow rounds the float64 vector a into dst, which must have the same
// length, and returns dst. This is the single rounding step at the store
// boundary — the same rounding a snapshot save applies.
func Narrow(dst []float32, a []float64) []float32 {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("vec: Narrow length mismatch %d != %d", len(dst), len(a)))
	}
	for i, v := range a {
		dst[i] = float32(v)
	}
	return dst
}
