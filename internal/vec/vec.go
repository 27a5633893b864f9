// Package vec provides dense float64 vector and matrix kernels used by the
// retrofitting solvers, the embedding store, and the neural network library.
//
// All operations are allocation-conscious: the mutating variants write into
// their receiver or an explicit destination, and the few allocating helpers
// are clearly named (Clone, NewMatrix, ...). Vectors are plain []float64;
// matrices are row-major with an explicit stride so that row views are
// cheap sub-slices.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if the lengths differ.
//
// On amd64 with AVX2+FMA (and no RETRO_SIMD cap) the inner loop is the
// fused multiply-add kernel in dot_amd64.s; everywhere else it is
// dotGeneric. The kernels re-associate the sum differently (8 SIMD
// accumulator lanes vs 4 scalar ones) and FMA skips an intermediate
// rounding, so results differ across levels only in the last ulps —
// well below the solver and search tolerances, and irrelevant to
// batch-vs-single parity because one process always runs one kernel.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(a), len(b)))
	}
	return dot(a, b)
}

// dotGeneric is the portable kernel and the reference the assembly is
// property-tested against.
//
// The loop runs four independent accumulators so the floating-point adds
// pipeline instead of serialising on one dependency chain; distance
// arithmetic on this kernel dominates every ANN hop, so the ~3x
// throughput difference is visible end to end.
func dotGeneric(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	// Slice-advance form: the loop condition covers both slices, so the
	// compiler proves all eight accesses in bounds and the inner loop
	// carries no checks.
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	for i := range a {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float64) float64 {
	return math.Sqrt(Dot(a, a))
}

// SquaredDistance returns ||a-b||^2, the quantity the retrofitting loss
// (eq. 4-6 of the paper) is built from.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: SquaredDistance length mismatch %d != %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		d2 := a[2] - b[2]
		d3 := a[3] - b[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		a, b = a[4:], b[4:]
	}
	for i := range a {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Cosine returns the cosine similarity of a and b. A zero vector has
// similarity 0 with everything (by convention, so OOV null vectors do not
// rank as neighbours). The dot product and both squared norms are
// accumulated in one fused pass — a and b are each read once, not three
// times as the Dot+Norm+Norm formulation would.
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Cosine length mismatch %d != %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var d0, d1, na0, na1, nb0, nb1 float64
	for len(a) >= 2 && len(b) >= 2 {
		x0, y0 := a[0], b[0]
		x1, y1 := a[1], b[1]
		d0 += x0 * y0
		d1 += x1 * y1
		na0 += x0 * x0
		na1 += x1 * x1
		nb0 += y0 * y0
		nb1 += y1 * y1
		a, b = a[2:], b[2:]
	}
	for i := range a {
		x, y := a[i], b[i]
		d0 += x * y
		na0 += x * x
		nb0 += y * y
	}
	na2, nb2 := na0+na1, nb0+nb1
	if na2 == 0 || nb2 == 0 {
		return 0
	}
	return (d0 + d1) / (math.Sqrt(na2) * math.Sqrt(nb2))
}

// Axpy computes dst += alpha*x element-wise. It panics on length mismatch.
// Like Dot, the inner loop routes through the runtime SIMD dispatch (the
// repair kernels call this in the write hot loop); the AVX2 path keeps
// the separate multiply and add, so every level is bit-identical.
func Axpy(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("vec: Axpy length mismatch %d != %d", len(dst), len(x)))
	}
	axpy(dst, alpha, x)
}

// axpyGeneric is the portable kernel and the reference the assembly is
// property-tested against. Each element is independent, so the 4-wide
// unroll changes no result; it exists to keep the solver inner loops fed
// (this kernel carries the bulk of every retrofitting iteration).
func axpyGeneric(dst []float64, alpha float64, x []float64) {
	x = x[:len(dst)]
	if alpha == 1 {
		for len(dst) >= 4 && len(x) >= 4 {
			dst[0] += x[0]
			dst[1] += x[1]
			dst[2] += x[2]
			dst[3] += x[3]
			dst, x = dst[4:], x[4:]
		}
		for i := range dst {
			dst[i] += x[i]
		}
		return
	}
	for len(dst) >= 4 && len(x) >= 4 {
		dst[0] += alpha * x[0]
		dst[1] += alpha * x[1]
		dst[2] += alpha * x[2]
		dst[3] += alpha * x[3]
		dst, x = dst[4:], x[4:]
	}
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

// Scale multiplies every element of a by alpha in place. The SIMD path
// (VMULPD) performs the identical independent multiply per element, so
// every dispatch level is bit-identical.
func Scale(a []float64, alpha float64) {
	scale(a, alpha)
}

func scaleGeneric(a []float64, alpha float64) {
	for i := range a {
		a[i] *= alpha
	}
}

// Add computes dst = a + b. dst may alias a or b. Like Scale, the SIMD
// path is bit-identical to the scalar one.
func Add(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vec: Add length mismatch")
	}
	add(dst, a, b)
}

func addGeneric(dst, a, b []float64) {
	for i := range a {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b. dst may alias a or b.
func Sub(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vec: Sub length mismatch")
	}
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// Zero sets every element of a to 0.
func Zero(a []float64) {
	for i := range a {
		a[i] = 0
	}
}

// Fill sets every element of a to v.
func Fill(a []float64, v float64) {
	for i := range a {
		a[i] = v
	}
}

// Clone returns a fresh copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// IsZero reports whether every element of a is exactly 0. Used to detect
// null-vector (OOV) initialisations.
func IsZero(a []float64) bool {
	for _, v := range a {
		if v != 0 {
			return false
		}
	}
	return true
}

// Normalize scales a to unit L2 norm in place and returns the original
// norm. A zero vector is left unchanged and 0 is returned.
func Normalize(a []float64) float64 {
	n := Norm(a)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
	return n
}

// ArgMax returns the index of the largest element of a, or -1 for an
// empty slice. Ties resolve to the lowest index.
func ArgMax(a []float64) int {
	if len(a) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(a); i++ {
		if a[i] > a[best] {
			best = i
		}
	}
	return best
}

// Sum returns the sum of the elements of a.
func Sum(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of a, or 0 for an empty slice.
func Mean(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a))
}

// StdDev returns the population standard deviation of a.
func StdDev(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	m := Mean(a)
	var s float64
	for _, v := range a {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}
