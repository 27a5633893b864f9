package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDot(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := Dot(a, b); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v, want 0", got)
	}
}

func TestSquaredDistance(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{4, 6}
	if got := SquaredDistance(a, b); got != 25 {
		t.Fatalf("SquaredDistance = %v, want 25", got)
	}
	if got := SquaredDistance(a, a); got != 0 {
		t.Fatalf("SquaredDistance(a,a) = %v, want 0", got)
	}
}

func TestCosine(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if got := Cosine(a, b); got != 0 {
		t.Fatalf("orthogonal cosine = %v, want 0", got)
	}
	if got := Cosine(a, a); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("self cosine = %v, want 1", got)
	}
	if got := Cosine(a, []float64{0, 0}); got != 0 {
		t.Fatalf("zero-vector cosine = %v, want 0 by convention", got)
	}
}

func TestAxpyScaleAddSub(t *testing.T) {
	dst := []float64{1, 1}
	Axpy(dst, 2, []float64{3, 4})
	if dst[0] != 7 || dst[1] != 9 {
		t.Fatalf("Axpy = %v", dst)
	}
	Scale(dst, 0.5)
	if dst[0] != 3.5 || dst[1] != 4.5 {
		t.Fatalf("Scale = %v", dst)
	}
	out := make([]float64, 2)
	Add(out, []float64{1, 2}, []float64{3, 4})
	if out[0] != 4 || out[1] != 6 {
		t.Fatalf("Add = %v", out)
	}
	Sub(out, []float64{1, 2}, []float64{3, 4})
	if out[0] != -2 || out[1] != -2 {
		t.Fatalf("Sub = %v", out)
	}
}

func TestAxpyAlphaOneFastPath(t *testing.T) {
	dst := []float64{1, 2}
	Axpy(dst, 1, []float64{10, 20})
	if dst[0] != 11 || dst[1] != 22 {
		t.Fatalf("Axpy alpha=1 = %v", dst)
	}
}

func TestNormalize(t *testing.T) {
	a := []float64{3, 4}
	n := Normalize(a)
	if n != 5 {
		t.Fatalf("returned norm = %v, want 5", n)
	}
	if !almostEqual(Norm(a), 1, 1e-12) {
		t.Fatalf("norm after Normalize = %v", Norm(a))
	}
	z := []float64{0, 0}
	if n := Normalize(z); n != 0 || z[0] != 0 {
		t.Fatalf("Normalize(zero) changed vector or returned %v", n)
	}
}

func TestIsZeroCloneFill(t *testing.T) {
	if !IsZero([]float64{0, 0}) || IsZero([]float64{0, 1e-300}) {
		t.Fatal("IsZero misbehaves")
	}
	a := []float64{1, 2}
	b := Clone(a)
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone did not copy")
	}
	Fill(a, 7)
	if a[0] != 7 || a[1] != 7 {
		t.Fatalf("Fill = %v", a)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3, 5}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1 (first of ties)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil) = %d, want -1", got)
	}
}

func TestSumMeanStdDev(t *testing.T) {
	a := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Sum(a); got != 40 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Mean(a); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := StdDev(a); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty Mean/StdDev should be 0")
	}
}

// Property: Cauchy-Schwarz, |<a,b>| <= ||a||*||b||.
func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(a, b [8]float64) bool {
		av, bv := a[:], b[:]
		for i := range av {
			av[i] = clampFinite(av[i])
			bv[i] = clampFinite(bv[i])
		}
		lhs := math.Abs(Dot(av, bv))
		rhs := Norm(av) * Norm(bv)
		return lhs <= rhs*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Euclidean distance derived from
// SquaredDistance.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(a, b, c [6]float64) bool {
		av, bv, cv := a[:], b[:], c[:]
		for i := range av {
			av[i] = clampFinite(av[i])
			bv[i] = clampFinite(bv[i])
			cv[i] = clampFinite(cv[i])
		}
		dab := math.Sqrt(SquaredDistance(av, bv))
		dbc := math.Sqrt(SquaredDistance(bv, cv))
		dac := math.Sqrt(SquaredDistance(av, cv))
		return dac <= dab+dbc+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Normalize yields unit norm for non-zero vectors.
func TestPropertyNormalizeUnit(t *testing.T) {
	f := func(a [5]float64) bool {
		av := Clone(a[:])
		for i := range av {
			av[i] = clampFinite(av[i])
		}
		if IsZero(av) {
			return true
		}
		n := Normalize(av)
		if n == 0 {
			// Possible underflow of tiny components; accept.
			return true
		}
		return almostEqual(Norm(av), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// clampFinite maps NaN/Inf/huge quick-generated values into a sane range so
// properties test math, not float overflow.
func clampFinite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	if m.At(0, 1) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	if len(m.Row(1)) != 3 {
		t.Fatal("Row length wrong")
	}
	r := m.Row(0)
	r[2] = 7
	if m.At(0, 2) != 7 {
		t.Fatal("Row is not a view")
	}
}

func TestNewMatrixFrom(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatal("NewMatrixFrom content wrong")
	}
	empty := NewMatrixFrom(nil)
	if empty.Rows != 0 {
		t.Fatal("empty NewMatrixFrom should have 0 rows")
	}
}

func TestNewMatrixFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged input")
		}
	}()
	NewMatrixFrom([][]float64{{1, 2}, {3}})
}

func TestMatrixCloneCopyFrom(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	m2 := NewMatrix(2, 2)
	m2.CopyFrom(m)
	if !m2.Equal(m, 0) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestSubRowsView(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	v := m.SubRows(1, 3)
	if v.Rows != 2 || v.At(0, 0) != 3 || v.At(1, 1) != 6 {
		t.Fatalf("SubRows content wrong: %v", v)
	}
	v.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Fatal("SubRows should share storage")
	}
}

func TestMatrixMul(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	dst := NewMatrix(2, 2)
	a.Mul(dst, b)
	want := NewMatrixFrom([][]float64{{19, 22}, {43, 50}})
	if !dst.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", dst, want)
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	dst := make([]float64, 2)
	a.MulVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Fatalf("MulVec = %v", dst)
	}
	dstT := make([]float64, 2)
	a.MulVecT(dstT, []float64{1, 1})
	if dstT[0] != 4 || dstT[1] != 6 {
		t.Fatalf("MulVecT = %v", dstT)
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 {
		t.Fatalf("T = %v", at)
	}
}

func TestRowSquaredNormsAndScaleRows(t *testing.T) {
	m := NewMatrixFrom([][]float64{{3, 4}, {1, 0}})
	norms := make([]float64, 2)
	m.RowSquaredNorms(norms)
	if norms[0] != 25 || norms[1] != 1 {
		t.Fatalf("RowSquaredNorms = %v", norms)
	}
	m.ScaleRows([]float64{2, 3})
	if m.At(0, 0) != 6 || m.At(1, 0) != 3 {
		t.Fatalf("ScaleRows = %v", m)
	}
}

func TestAddScaled(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 1}})
	o := NewMatrixFrom([][]float64{{2, 3}})
	m.AddScaled(2, o)
	if m.At(0, 0) != 5 || m.At(0, 1) != 7 {
		t.Fatalf("AddScaled = %v", m)
	}
}

func TestMatrixRandomizeDeterministic(t *testing.T) {
	m1 := NewMatrix(3, 3)
	m2 := NewMatrix(3, 3)
	m1.Randomize(rand.New(rand.NewSource(42)), 0.5)
	m2.Randomize(rand.New(rand.NewSource(42)), 0.5)
	if !m1.Equal(m2, 0) {
		t.Fatal("Randomize not deterministic under fixed seed")
	}
	for _, v := range m1.Data {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("Randomize out of range: %v", v)
		}
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestPropertyMulTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := NewMatrix(r, k)
		b := NewMatrix(k, c)
		a.Randomize(rng, 1)
		b.Randomize(rng, 1)
		ab := NewMatrix(r, c)
		a.Mul(ab, b)
		lhs := ab.T()
		rhs := NewMatrix(c, r)
		b.T().Mul(rhs, a.T())
		if !lhs.Equal(rhs, 1e-9) {
			t.Fatalf("trial %d: (AB)^T != B^T A^T", trial)
		}
	}
}

func TestMatrixString(t *testing.T) {
	small := NewMatrixFrom([][]float64{{1}})
	if small.String() == "" {
		t.Fatal("String empty")
	}
	big := NewMatrix(100, 100)
	if big.String() != "Matrix(100x100)" {
		t.Fatalf("big String = %q", big.String())
	}
}

// --- Unrolled-kernel parity --------------------------------------------------

// naiveDot is the pre-unroll reference; the 4-accumulator kernel may
// differ from it only by re-association rounding.
func naiveDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestUnrolledKernelsMatchNaive sweeps every residual length class of the
// 4-wide loops (n mod 4 = 0..3, plus tiny and empty inputs) and checks the
// unrolled kernels against straightforward scalar references.
func TestUnrolledKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 300} {
		a, b := randVec(rng, n), randVec(rng, n)
		tol := 1e-12 * float64(n+1)

		if got, want := Dot(a, b), naiveDot(a, b); !almostEqual(got, want, tol) {
			t.Fatalf("n=%d: Dot = %v, naive = %v", n, got, want)
		}

		var wantSq float64
		for i := range a {
			d := a[i] - b[i]
			wantSq += d * d
		}
		if got := SquaredDistance(a, b); !almostEqual(got, wantSq, tol) {
			t.Fatalf("n=%d: SquaredDistance = %v, naive = %v", n, got, wantSq)
		}

		dst, ref := Clone(a), Clone(a)
		Axpy(dst, 1.5, b)
		for i := range ref {
			ref[i] += 1.5 * b[i]
		}
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("n=%d: Axpy[%d] = %v, want %v (elementwise op must be bit-exact)", n, i, dst[i], ref[i])
			}
		}
		dst, ref = Clone(a), Clone(a)
		Axpy(dst, 1, b)
		for i := range ref {
			ref[i] += b[i]
		}
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("n=%d: Axpy(alpha=1)[%d] = %v, want %v", n, i, dst[i], ref[i])
			}
		}

		if n > 0 {
			na, nb := Norm(a), Norm(b)
			if na != 0 && nb != 0 {
				want := naiveDot(a, b) / (na * nb)
				if got := Cosine(a, b); !almostEqual(got, want, 1e-9) {
					t.Fatalf("n=%d: fused Cosine = %v, three-pass = %v", n, got, want)
				}
			}
		}
	}
}
