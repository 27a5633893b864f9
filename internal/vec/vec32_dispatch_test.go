package vec

import (
	"math"
	"math/rand"
	"testing"

	"github.com/retrodb/retro/internal/cpu"
)

// Forced-level parity for the float32 dot kernel, against BOTH references:
// the portable float32 kernel (tight tolerance — the assembly only
// re-associates float64 accumulators) and the float64 kernel on the
// widened inputs (the ISSUE-level bound: f32 serving scores within 1e-6
// relative of the f64 pipeline on the same float32-rounded data).

var kernelLengths = []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300, 301}

func randPair32(rng *rand.Rand, n int) (a32, b32 []float32, a64, b64 []float64) {
	a32 = make([]float32, n)
	b32 = make([]float32, n)
	a64 = make([]float64, n)
	b64 = make([]float64, n)
	for i := 0; i < n; i++ {
		a32[i] = float32(rng.NormFloat64())
		b32[i] = float32(rng.NormFloat64())
		a64[i] = float64(a32[i])
		b64[i] = float64(b32[i])
	}
	return
}

func forEachLevel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	orig := cpu.Active()
	defer cpu.SetLevel(orig)
	for _, l := range []cpu.Level{cpu.Scalar, cpu.SSE2, cpu.AVX2} {
		if l > cpu.Detected() {
			continue
		}
		cpu.SetLevel(l)
		t.Run(l.String(), fn)
	}
	cpu.SetLevel(orig)
}

func TestDot32KernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	forEachLevel(t, func(t *testing.T) {
		for _, n := range kernelLengths {
			a32, b32, a64, b64 := randPair32(rng, n)
			got := Dot32(a32, b32)
			var mag float64
			for i := range a64 {
				mag += math.Abs(a64[i] * b64[i])
			}
			// Same-precision reference: float64 accumulators on both
			// sides, only the association order differs.
			if want := dot32Generic(a32, b32); math.Abs(got-want) > 1e-12*(1+mag) {
				t.Fatalf("level %v n=%d: Dot32=%g generic=%g", cpu.Active(), n, got, want)
			}
			// Cross-precision reference: the f64 kernel on widened inputs.
			if want := Dot(a64, b64); math.Abs(got-want) > 1e-6*(1+mag) {
				t.Fatalf("level %v n=%d: Dot32=%g Dot=%g", cpu.Active(), n, got, want)
			}
		}
	})
}

// Forced-level parity for the float64 elementwise kernels now routed
// through the dispatcher. All four must be bit-identical at every
// level: independent per-element ops, multiply and add kept separate.
func TestAxpyScaleAddKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	forEachLevel(t, func(t *testing.T) {
		for _, n := range kernelLengths {
			a := make([]float64, n)
			b := make([]float64, n)
			for i := 0; i < n; i++ {
				a[i] = rng.NormFloat64()
				b[i] = rng.NormFloat64()
			}
			alpha := rng.NormFloat64()

			dst := Clone(a)
			ref := Clone(a)
			Axpy(dst, alpha, b)
			axpyGeneric(ref, alpha, b)
			for i := range dst {
				if dst[i] != ref[i] {
					t.Fatalf("level %v n=%d i=%d: Axpy=%g generic=%g", cpu.Active(), n, i, dst[i], ref[i])
				}
			}

			// alpha==1 fast path of the generic kernel must agree too.
			dst, ref = Clone(a), Clone(a)
			Axpy(dst, 1, b)
			axpyGeneric(ref, 1, b)
			for i := range dst {
				if dst[i] != ref[i] {
					t.Fatalf("level %v n=%d i=%d: Axpy(alpha=1)=%g generic=%g", cpu.Active(), n, i, dst[i], ref[i])
				}
			}

			// The one-pass kernel against the two calls it replaces.
			c := make([]float64, n)
			for i := range c {
				c[i] = rng.NormFloat64()
			}
			dst, ref = Clone(a), Clone(a)
			acc, accRef := Clone(c), Clone(c)
			AxpyAcc(dst, alpha, b, acc)
			axpyGeneric(ref, alpha, b)
			axpyGeneric(accRef, 1, b)
			for i := range dst {
				if dst[i] != ref[i] || acc[i] != accRef[i] {
					t.Fatalf("level %v n=%d i=%d: AxpyAcc=(%g, %g) two axpyGeneric=(%g, %g)",
						cpu.Active(), n, i, dst[i], acc[i], ref[i], accRef[i])
				}
			}

			dst, ref = Clone(a), Clone(a)
			Scale(dst, alpha)
			scaleGeneric(ref, alpha)
			for i := range dst {
				if dst[i] != ref[i] {
					t.Fatalf("level %v n=%d i=%d: Scale=%g generic=%g", cpu.Active(), n, i, dst[i], ref[i])
				}
			}

			dst, ref = make([]float64, n), make([]float64, n)
			Add(dst, a, b)
			addGeneric(ref, a, b)
			for i := range dst {
				if dst[i] != ref[i] {
					t.Fatalf("level %v n=%d i=%d: Add=%g generic=%g", cpu.Active(), n, i, dst[i], ref[i])
				}
			}
			// Aliased form: dst == a.
			dst, ref = Clone(a), Clone(a)
			Add(dst, dst, b)
			addGeneric(ref, ref, b)
			for i := range dst {
				if dst[i] != ref[i] {
					t.Fatalf("level %v n=%d i=%d: aliased Add=%g generic=%g", cpu.Active(), n, i, dst[i], ref[i])
				}
			}
		}
	})
}

// The dispatched float32 kernels must be pure functions within a
// process: TopK tie-breaking and the batch-vs-single parity tests rely
// on score stability.
func TestDot32KernelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	a := make([]float32, 301)
	b := make([]float32, 301)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	first := Dot32(a, b)
	for i := 0; i < 100; i++ {
		if got := Dot32(a, b); got != first {
			t.Fatalf("run %d: Dot32 returned %v then %v", i, first, got)
		}
	}
}

func BenchmarkDot32Kernel(b *testing.B) {
	rng := rand.New(rand.NewSource(131))
	const dim = 300
	x := make([]float32, dim)
	y := make([]float32, dim)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	orig := cpu.Active()
	defer cpu.SetLevel(orig)
	for _, l := range []cpu.Level{cpu.Scalar, cpu.AVX2} {
		if l > cpu.Detected() {
			continue
		}
		cpu.SetLevel(l)
		name := "generic"
		if cpu.HasFMA() {
			name = "fma"
		}
		b.Run(name, func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += Dot32(x, y)
			}
			sinkF = s
		})
	}
	cpu.SetLevel(orig)
}

// BenchmarkAxpyRowFetch prices the solver's inner step, one Axpy of a
// 300-dim row into an accumulator, by where the row comes from: the same
// row every time (L1-resident), or a random row of an 8830 × 300 matrix
// (21 MB, the train world's W), which the iteration fetches from memory.
// The last two cases are roRow's attraction step before and after the
// one-pass kernel: two Axpy calls reading the random row twice, and one
// AxpyAcc reading it once.
func BenchmarkAxpyRowFetch(b *testing.B) {
	const rows, dim = 8830, 300
	rng := rand.New(rand.NewSource(31))
	m := NewMatrix(rows, dim)
	m.Randomize(rng, 1)
	order := rng.Perm(rows)
	dst, acc := make([]float64, dim), make([]float64, dim)
	b.Run("resident", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Axpy(dst, 0.5, m.Row(7))
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Axpy(dst, 0.5, m.Row(order[i%rows]))
		}
	})
	b.Run("random-two-axpy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := m.Row(order[i%rows])
			Axpy(dst, 0.5, x)
			Axpy(acc, 1, x)
		}
	})
	b.Run("random-axpyacc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AxpyAcc(dst, 0.5, m.Row(order[i%rows]), acc)
		}
	})
}
