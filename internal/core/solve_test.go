package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/reldb"
	"github.com/retrodb/retro/internal/tokenize"
	"github.com/retrodb/retro/internal/vec"
)

// randomProblem builds a random but well-formed retrofitting problem for
// property-style testing.
func randomProblem(t testing.TB, rng *rand.Rand, n, dim, numCats, numRels int) *Problem {
	t.Helper()
	spec := ManualSpec{Dim: dim, NumCategories: numCats}
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		spec.Values = append(spec.Values, ManualValue{
			Label:    "v",
			Category: rng.Intn(numCats),
			Vector:   v,
		})
	}
	for r := 0; r < numRels; r++ {
		var edges []Edge
		seen := map[Edge]bool{}
		for e := 0; e < 1+rng.Intn(2*n); e++ {
			edge := Edge{From: rng.Intn(n), To: rng.Intn(n)}
			if edge.From != edge.To && !seen[edge] {
				seen[edge] = true
				edges = append(edges, edge)
			}
		}
		if len(edges) == 0 {
			edges = []Edge{{From: 0, To: n - 1}}
		}
		spec.Relations = append(spec.Relations, ManualRelation{Name: "r", Edges: edges})
	}
	p, err := BuildManualProblem(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// grownFixture is growFixture after inserting `rows` movies one at a
// time, every centroid refreshed. Its groups carry overflow adjacency,
// folded back into CSR once enough rows went in; wantCompacted says
// which of the two the caller needs.
func grownFixture(t *testing.T, rows int, wantCompacted bool) (*reldb.DB, *extract.Extraction, *Problem, *tokenize.Tokenizer) {
	t.Helper()
	db, ex, p, tok := growFixture(t)
	baseN := p.N
	for i := 0; i < rows; i++ {
		insertAndGrow(t, db, ex, p, tok, "movies", [][]reldb.Value{
			{reldb.Int(int64(100 + i)), reldb.Text(fmt.Sprintf("film %d", i)), reldb.Text("usa")},
		})
	}
	all := make([]int, p.N)
	for i := range all {
		all[i] = i
	}
	p.RefreshCentroids(all)
	overflow, compacted := false, false
	for gi := range p.Groups {
		overflow = overflow || p.Groups[gi].extraEdges > 0
		compacted = compacted || len(p.Groups[gi].RowPtr) > baseN+1
	}
	if !overflow || compacted != wantCompacted {
		t.Fatalf("%d grown rows: overflow=%v compacted=%v", rows, overflow, compacted)
	}
	return db, ex, p, tok
}

// grownProblem is the problem of grownFixture.
func grownProblem(t *testing.T, rows int, wantCompacted bool) *Problem {
	t.Helper()
	_, _, p, _ := grownFixture(t, rows, wantCompacted)
	return p
}

// TestSolveMatchesReference pins the one driver from three sides, for
// every variant, worker count, problem shape and with each of the
// repulsion and centroid terms on and off: W is bit-equal across worker
// counts (so sequential = parallel), agrees with the textbook Jacobi
// reference of reference_test.go, and one more sweep produces exactly the
// rows delta repair's kernel call produces from the same vectors and
// their target sums (so full solve = repair).
func TestSolveMatchesReference(t *testing.T) {
	problems := []struct {
		name string
		p    *Problem
	}{
		{"fresh", randomProblem(t, rand.New(rand.NewSource(29)), 40, 5, 3, 3)},
		{"overflow", grownProblem(t, 3, false)},
		{"compacted", grownProblem(t, 200, true)},
	}
	for _, pc := range problems {
		p := pc.p
		for _, variant := range []Variant{RO, RN} {
			for _, delta := range []float64{0, 0.5} {
				for _, beta := range []float64{0, 0.8} {
					h := Hyperparams{Alpha: 2, Beta: beta, Gamma: 1.5, Delta: delta, Iterations: 3}
					name := fmt.Sprintf("%s/%v/delta=%g/beta=%g", pc.name, variant, delta, beta)
					seq := Solve(p, h, variant, ParallelOptions{Workers: 1}).W
					for _, workers := range []int{0, 2, 3, 7, p.N + 5} {
						if par := Solve(p, h, variant, ParallelOptions{Workers: workers}).W; !par.Equal(seq, 0) {
							t.Errorf("%s: workers=%d differs from workers=1", name, workers)
						}
					}
					if !seq.Equal(solveNaive(p, h, variant), 1e-9) {
						t.Errorf("%s: differs from the pointwise reference", name)
					}

					h.Iterations++
					next := Solve(p, h, variant, ParallelOptions{Workers: 3}).W
					st := NewIncrementalState(p, seq)
					repaired, scratch := vec.NewMatrix(p.N, p.Dim), make([]float64, p.Dim)
					for i := 0; i < p.N; i++ {
						updateRow(p, h, variant, st.sums, seq, i, appendSourceGroups(nil, p, i), repaired.Row(i), scratch)
					}
					if !repaired.Equal(next, 0) {
						t.Errorf("%s: the next sweep's rows are not the repair kernel's", name)
					}
				}
			}
		}
	}
}

func TestParallelROMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(t, rng, 10+rng.Intn(30), 1+rng.Intn(6), 1+rng.Intn(3), 1+rng.Intn(3))
		h := Hyperparams{
			Alpha: 1 + rng.Float64(), Beta: rng.Float64(),
			Gamma: rng.Float64() * 3, Delta: rng.Float64(),
			Iterations: 1 + rng.Intn(6),
		}
		seq := SolveRO(p, h, SolveOptions{})
		for _, workers := range []int{1, 2, 4, 7} {
			par := SolveROParallel(p, h, ParallelOptions{Workers: workers})
			if !seq.W.Equal(par.W, 0) {
				t.Fatalf("trial %d workers=%d: parallel RO differs from sequential", trial, workers)
			}
		}
	}
}

func TestParallelRNMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(t, rng, 10+rng.Intn(30), 1+rng.Intn(6), 1+rng.Intn(3), 1+rng.Intn(3))
		h := Hyperparams{
			Alpha: 1, Beta: rng.Float64(), Gamma: 3 * rng.Float64(), Delta: rng.Float64(),
			Iterations: 1 + rng.Intn(6),
		}
		seq := SolveRN(p, h, SolveOptions{})
		par := SolveRNParallel(p, h, ParallelOptions{Workers: 4})
		if !seq.W.Equal(par.W, 0) {
			t.Fatalf("trial %d: parallel RN differs from sequential", trial)
		}
	}
}

// TestParallelTrackLoss: a TrackLoss solve records, after iteration k,
// exactly Loss of the W that k iterations produce.
func TestParallelTrackLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomProblem(t, rng, 20, 4, 2, 2)
	h := Hyperparams{Alpha: 2, Beta: 1, Gamma: 1, Delta: 0.1, Iterations: 4}
	res := SolveROParallel(p, h, ParallelOptions{SolveOptions: SolveOptions{TrackLoss: true}, Workers: 3})
	if len(res.LossHistory) != 4 {
		t.Fatalf("loss history = %d", len(res.LossHistory))
	}
	for k, got := range res.LossHistory {
		hk := h
		hk.Iterations = k + 1
		if want := Loss(p, h, SolveRO(p, hk, SolveOptions{}).W); got != want {
			t.Errorf("LossHistory[%d] = %v, Loss of that iteration's W = %v", k, got, want)
		}
	}
}

// TestFaruquiMatchesReference pins the MF kernel on the driver to the
// baseline's own sequential Jacobi loop, bit for bit, on the golden
// problems and a grown one with overflow adjacency, on one worker and on
// three.
func TestFaruquiMatchesReference(t *testing.T) {
	problems := append(goldenProblems(t), namedProblem{"overflow", grownProblem(t, 3, false)})
	for _, pc := range problems {
		for _, alpha := range []float64{1, 0.5} {
			want := solveFaruquiNaive(pc.p, alpha, 20)
			if got := SolveFaruqui(pc.p, alpha, 20).W; !got.Equal(want, 0) {
				t.Errorf("%s/alpha=%g: SolveFaruqui differs from the reference", pc.name, alpha)
			}
			for _, workers := range []int{1, 3} {
				got := solve(pc.p, Hyperparams{Alpha: alpha, Iterations: 20}, mf, SolveOptions{}, workers).W
				if !got.Equal(want, 0) {
					t.Errorf("%s/alpha=%g/w%d: differs from the reference", pc.name, alpha, workers)
				}
			}
		}
	}
}

// --- Property-style tests over random problems ------------------------------

// Property: RO matrix iteration equals the pointwise eq. (8) reference
// on arbitrary problems (one Jacobi step).
func TestPropertyROPointwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 15; trial++ {
		p := randomProblem(t, rng, 5+rng.Intn(15), 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(3))
		h := Hyperparams{Alpha: 1 + rng.Float64(), Beta: rng.Float64(), Gamma: rng.Float64() * 2, Delta: rng.Float64() * 0.5, Iterations: 1}
		res := SolveRO(p, h, SolveOptions{})
		if want := solveNaive(p, h, RO); !res.W.Equal(want, 1e-9) {
			t.Fatalf("trial %d: matrix %v != pointwise %v", trial, res.W, want)
		}
	}
}

// Property: the eq. (15) optimisation never changes RO results.
func TestPropertyRONaiveEqualsOptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(t, rng, 5+rng.Intn(20), 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(3))
		h := Hyperparams{Alpha: 2, Beta: rng.Float64(), Gamma: rng.Float64() * 2, Delta: rng.Float64(), Iterations: 1 + rng.Intn(5)}
		opt := SolveRO(p, h, SolveOptions{})
		if !opt.W.Equal(solveNaive(p, h, RO), 1e-9) {
			t.Fatalf("trial %d: optimisation changed results", trial)
		}
	}
}

// Property: RN rows are unit-norm (or exactly zero) on arbitrary problems.
func TestPropertyRNUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(t, rng, 5+rng.Intn(20), 1+rng.Intn(5), 1+rng.Intn(3), rng.Intn(3)+1)
		h := Hyperparams{Alpha: rng.Float64() * 2, Beta: rng.Float64(), Gamma: rng.Float64() * 3, Delta: rng.Float64(), Iterations: 1 + rng.Intn(5)}
		res := SolveRN(p, h, SolveOptions{})
		for i := 0; i < p.N; i++ {
			n := vec.Norm(res.W.Row(i))
			if n != 0 && (n < 1-1e-9 || n > 1+1e-9) {
				t.Fatalf("trial %d node %d: norm %v", trial, i, n)
			}
		}
	}
}

// Property: under convex parameter settings (checked via eq. 7) the RO
// loss is non-increasing across iterations on random problems.
func TestPropertyROLossMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	tried := 0
	for trial := 0; tried < 8 && trial < 50; trial++ {
		p := randomProblem(t, rng, 5+rng.Intn(15), 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(2))
		h := Hyperparams{Alpha: 3 + rng.Float64()*2, Beta: rng.Float64(), Gamma: rng.Float64(), Delta: rng.Float64() * 0.2, Iterations: 10}
		if !CheckConvexity(p, h).Convex() {
			continue
		}
		tried++
		res := SolveRO(p, h, SolveOptions{TrackLoss: true})
		for i := 1; i < len(res.LossHistory); i++ {
			if res.LossHistory[i] > res.LossHistory[i-1]+1e-9 {
				t.Fatalf("loss increased on convex problem at iter %d: %v", i, res.LossHistory)
			}
		}
	}
	if tried == 0 {
		t.Fatal("no convex random problems generated; loosen the sampler")
	}
}

// Property: incremental repair of a corrupted node set restores the
// converged fixed point on random problems.
func TestPropertyIncrementalRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 6; trial++ {
		p := randomProblem(t, rng, 8+rng.Intn(10), 2, 2, 1)
		h := Hyperparams{Alpha: 3, Beta: 1, Gamma: 1, Delta: 0.2, Iterations: 150}
		full := SolveRO(p, h, SolveOptions{})
		w := full.W.Clone()
		dirty := []int{rng.Intn(p.N), rng.Intn(p.N)}
		for _, i := range dirty {
			vec.Fill(w.Row(i), 7)
		}
		UpdateIncremental(p, w, NewIncrementalState(p, w), dirty, h, RO, IncrementalOptions{MaxIterations: 400, Tolerance: 1e-12})
		if !w.Equal(full.W, 1e-5) {
			t.Fatalf("trial %d: repair did not restore fixed point", trial)
		}
	}
}

// TestTargetSumsSharedSets pins the sharing of target sums. In the small
// problem r and s have the same target set {1, 2}, and t's set {1, 3}
// has the same TargetCount with other members; the inverses' sets all
// differ. The TMDB world has groups that share sets too. On both, every
// row targetSums fills must equal the group's own sum bit for bit, so a
// count-only match could never hand one group another's sum.
func TestTargetSumsSharedSets(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	spec := ManualSpec{Dim: 13, NumCategories: 1}
	for i := 0; i < 6; i++ {
		v := make([]float64, spec.Dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		spec.Values = append(spec.Values, ManualValue{Label: "v", Vector: v})
	}
	spec.Relations = []ManualRelation{
		{Name: "r", Edges: []Edge{{0, 1}, {4, 2}}},
		{Name: "s", Edges: []Edge{{3, 1}, {0, 2}, {5, 2}}},
		{Name: "t", Edges: []Edge{{4, 1}, {5, 3}}},
	}
	small, err := BuildManualProblem(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sharedTargetSets(small), []int{0, 1, 0, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("sharedTargetSets = %v, want %v", got, want)
	}
	tmdb := tmdbProblem(t, 300, 48)
	distinct := 0
	for gi, r := range sharedTargetSets(tmdb) {
		if r == gi {
			distinct++
		}
	}
	if distinct == len(tmdb.Groups) {
		t.Fatalf("TMDB: all %d target sets are distinct; the test needs shared ones", distinct)
	}

	for _, p := range []*Problem{small, tmdb} {
		w := p.W0.Clone()
		w.Randomize(rng, 1)
		sums := vec.NewMatrix(len(p.Groups), p.Dim)
		targetSums(p, w, sums, sharedTargetSets(p))
		want := make([]float64, p.Dim)
		for gi := range p.Groups {
			vec.Zero(want)
			for k := 0; k < p.N; k++ {
				if p.Groups[gi].TargetSet[k] {
					vec.Axpy(want, 1, w.Row(k))
				}
			}
			if !slices.Equal(sums.Row(gi), want) {
				t.Errorf("N=%d group %d (%s): shared sum differs from its own", p.N, gi, p.Groups[gi].Name)
			}
		}
	}
}
