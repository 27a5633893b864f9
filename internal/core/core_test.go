package core

import (
	"math"
	"testing"

	"github.com/retrodb/retro/internal/vec"
)

// fig3Problem reproduces the paper's Figure 3 setup: three movies
// ("Inception", "Godfather" produced in USA; "Amelie" in France) and two
// countries, 2-d vectors, one movie->country relation group.
func fig3Problem(t *testing.T) *Problem {
	t.Helper()
	p, err := BuildManualProblem(ManualSpec{
		Dim:           2,
		NumCategories: 2,
		Values: []ManualValue{
			{Label: "Inception", Category: 0, Vector: []float64{1.0, 0.2}},
			{Label: "Godfather", Category: 0, Vector: []float64{0.8, -0.3}},
			{Label: "Amelie", Category: 0, Vector: []float64{-0.5, 0.9}},
			{Label: "USA", Category: 1, Vector: []float64{0.6, -0.8}},
			{Label: "France", Category: 1, Vector: []float64{-0.9, 0.4}},
		},
		Relations: []ManualRelation{{
			Name: "movie->country",
			Edges: []Edge{
				{From: 0, To: 3}, // Inception -> USA
				{From: 1, To: 3}, // Godfather -> USA
				{From: 2, To: 4}, // Amelie -> France
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestManualProblemValidation(t *testing.T) {
	if _, err := BuildManualProblem(ManualSpec{Dim: 2}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := BuildManualProblem(ManualSpec{Dim: 0, NumCategories: 1,
		Values: []ManualValue{{Category: 0, Vector: nil}}}); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := BuildManualProblem(ManualSpec{Dim: 2, NumCategories: 1,
		Values: []ManualValue{{Category: 0, Vector: []float64{1}}}}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := BuildManualProblem(ManualSpec{Dim: 1, NumCategories: 1,
		Values: []ManualValue{{Category: 5, Vector: []float64{1}}}}); err == nil {
		t.Fatal("bad category accepted")
	}
	if _, err := BuildManualProblem(ManualSpec{Dim: 1, NumCategories: 1,
		Values:    []ManualValue{{Category: 0, Vector: []float64{1}}},
		Relations: []ManualRelation{{Name: "r", Edges: []Edge{{0, 7}}}}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestGroupStructure(t *testing.T) {
	p := fig3Problem(t)
	if len(p.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (forward + inverse)", len(p.Groups))
	}
	fwd, inv := &p.Groups[0], &p.Groups[1]
	if fwd.OutDeg(0) != 1 || fwd.OutDeg(3) != 0 {
		t.Fatal("forward adjacency wrong")
	}
	if inv.OutDeg(3) != 2 || inv.OutDeg(0) != 0 {
		t.Fatal("inverse adjacency wrong")
	}
	if fwd.SourceCount != 3 || fwd.TargetCount != 2 {
		t.Fatalf("counts: S=%d T=%d", fwd.SourceCount, fwd.TargetCount)
	}
	if inv.SourceCount != 2 || inv.TargetCount != 3 {
		t.Fatalf("inverse counts: S=%d T=%d", inv.SourceCount, inv.TargetCount)
	}
	// |R_i| = 1 for all nodes (each participates in exactly one directed
	// group as source: movies in fwd, countries in inv).
	for i := 0; i < p.N; i++ {
		if p.NumRelTypes[i] != 1 {
			t.Fatalf("NumRelTypes[%d] = %d", i, p.NumRelTypes[i])
		}
	}
	edges := 0
	fwd.EachEdge(func(from, to int) { edges++ })
	if edges != 3 || fwd.NumEdges() != 3 {
		t.Fatal("EachEdge/NumEdges wrong")
	}
}

// TestDeriveWeights checks rowCoeffs, the production eqs. (12)–(14), on
// the Figure 3 problem by hand.
func TestDeriveWeights(t *testing.T) {
	p := fig3Problem(t)
	h := Hyperparams{Alpha: 1, Beta: 2, Gamma: 3, Delta: 1, Iterations: 5}
	fwd, inv := &p.Groups[0], &p.Groups[1]
	movie, usa := rowCoeffs(p, h, 0), rowCoeffs(p, h, 3)
	// β_i = β/(|R_i|+1) = 2/2 = 1.
	if movie.alpha != 1 || movie.beta != 1 {
		t.Fatalf("alpha, beta = %v, %v", movie.alpha, movie.beta)
	}
	// Movie 0: od=1, |R|+1=2 -> γ = 3/2.
	if g := movie.gammaR(fwd.OutDeg(0)); g != 1.5 {
		t.Fatalf("gamma fwd movie = %v", g)
	}
	// USA in inverse group: od=2 -> γ = 3/(2·2) = 0.75, also as the
	// per-edge γ^r̄_j RO's attraction reads.
	if g := usa.gammaR(inv.OutDeg(3)); g != 0.75 || gammaOf(h.Gamma, inv.OutDeg(3), usa.rt) != g {
		t.Fatalf("gamma inv USA = %v", g)
	}
	// deltaRO: mc = max(3,2)=3, mr = max(|R_i|+1)=2 -> δ/(3·2) = 1/6.
	if d := movie.deltaRO(fwd); math.Abs(d-1.0/6) > 1e-12 {
		t.Fatalf("deltaRO = %v", d)
	}
	if movie.deltaRO(fwd) != usa.deltaRO(inv) {
		t.Fatal("deltaRO must be symmetric between group and inverse")
	}
	// deltaRN movie 0: δ/(|T_r|·(|R|+1)) = 1/(2·2) = 0.25 (the centroid
	// normalisation of §4.2's series description).
	if d := movie.deltaRN(fwd); d != 0.25 {
		t.Fatalf("deltaRN = %v", d)
	}
	// No repulsion without δ.
	h.Delta = 0
	if c := rowCoeffs(p, h, 0); c.deltaRO(fwd) != 0 || c.deltaRN(fwd) != 0 {
		t.Fatal("δ = 0 must give zero repulsion weights")
	}
	// Non-sources carry zero weights: a row reads the coefficients of
	// its source groups only, and USA is no source of the forward group.
	if got := appendSourceGroups(nil, p, 3); len(got) != 1 || got[0] != 1 {
		t.Fatalf("USA's source groups = %v, want [1]", got)
	}
}

func TestROMatchesPointwiseUpdate(t *testing.T) {
	p := fig3Problem(t)
	h := Hyperparams{Alpha: 2, Beta: 1, Gamma: 2, Delta: 1, Iterations: 1}
	res := SolveRO(p, h, SolveOptions{})
	want := solveNaive(p, h, RO)
	if !res.W.Equal(want, 1e-9) {
		t.Fatalf("matrix iteration != pointwise eq.(8)\n got %v\nwant %v", res.W, want)
	}
}

func TestRNMatchesPointwiseUpdate(t *testing.T) {
	p := fig3Problem(t)
	h := Hyperparams{Alpha: 1, Beta: 1, Gamma: 3, Delta: 1, Iterations: 1}
	res := SolveRN(p, h, SolveOptions{})
	want := solveNaive(p, h, RN)
	if !res.W.Equal(want, 1e-9) {
		t.Fatalf("RN matrix iteration != pointwise eq.(9)\n got %v\nwant %v", res.W, want)
	}
}

func TestRONaiveNegativeEqualsOptimized(t *testing.T) {
	p := fig3Problem(t)
	h := Hyperparams{Alpha: 2, Beta: 1, Gamma: 2, Delta: 2, Iterations: 7}
	opt := SolveRO(p, h, SolveOptions{})
	if !opt.W.Equal(solveNaive(p, h, RO), 1e-9) {
		t.Fatal("eq.(15) optimisation changed RO results")
	}
}

func TestROLossMonotoneUnderConvexParams(t *testing.T) {
	p := fig3Problem(t)
	// Generous α keeps eq. (7) satisfied.
	h := Hyperparams{Alpha: 3, Beta: 1, Gamma: 2, Delta: 0.5, Iterations: 15}
	rep := CheckConvexity(p, h)
	if !rep.Convex() {
		t.Fatalf("expected convex configuration: %+v", rep)
	}
	res := SolveRO(p, h, SolveOptions{TrackLoss: true})
	for i := 1; i < len(res.LossHistory); i++ {
		if res.LossHistory[i] > res.LossHistory[i-1]+1e-9 {
			t.Fatalf("loss increased at iter %d: %v", i, res.LossHistory)
		}
	}
	// And the solved loss must beat the initial embedding's loss.
	if res.LossHistory[len(res.LossHistory)-1] >= Loss(p, h, p.W0) {
		t.Fatal("solver did not improve on W0")
	}
}

func TestROConvergesToFixedPoint(t *testing.T) {
	p := fig3Problem(t)
	h := Hyperparams{Alpha: 3, Beta: 1, Gamma: 2, Delta: 0.5}
	h.Iterations = 60
	a := SolveRO(p, h, SolveOptions{})
	h.Iterations = 61
	b := SolveRO(p, h, SolveOptions{})
	if !a.W.Equal(b.W, 1e-8) {
		t.Fatal("RO did not converge after 60 iterations on a 5-node problem")
	}
}

func TestRNUnitNorm(t *testing.T) {
	p := fig3Problem(t)
	res := SolveRN(p, DefaultRN(), SolveOptions{})
	for i := 0; i < p.N; i++ {
		n := vec.Norm(res.W.Row(i))
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("row %d norm = %v, want 1 (eq. 9 normalisation)", i, n)
		}
	}
}

func TestSolversDeterministic(t *testing.T) {
	p := fig3Problem(t)
	a := SolveRO(p, DefaultRO(), SolveOptions{})
	b := SolveRO(p, DefaultRO(), SolveOptions{})
	if !a.W.Equal(b.W, 0) {
		t.Fatal("RO not deterministic")
	}
	c := SolveRN(p, DefaultRN(), SolveOptions{})
	d := SolveRN(p, DefaultRN(), SolveOptions{})
	if !c.W.Equal(d.W, 0) {
		t.Fatal("RN not deterministic")
	}
}

// TestAlphaPullsTowardOriginal mirrors Fig. 3a: larger α keeps vectors
// closer to their original embeddings.
func TestAlphaPullsTowardOriginal(t *testing.T) {
	p := fig3Problem(t)
	dist := func(alpha float64) float64 {
		h := Hyperparams{Alpha: alpha, Beta: 1, Gamma: 2, Delta: 1, Iterations: 30}
		res := SolveRO(p, h, SolveOptions{})
		total := 0.0
		for i := 0; i < p.N; i++ {
			total += vec.SquaredDistance(res.W.Row(i), p.W0.Row(i))
		}
		return total
	}
	d1, d2, d3 := dist(1), dist(2), dist(3)
	if !(d1 > d2 && d2 > d3) {
		t.Fatalf("α should pull toward W0: d(α=1)=%v d(2)=%v d(3)=%v", d1, d2, d3)
	}
}

// TestBetaClustersCategories mirrors Fig. 3b: larger β tightens columns.
func TestBetaClustersCategories(t *testing.T) {
	p := fig3Problem(t)
	spread := func(beta float64) float64 {
		h := Hyperparams{Alpha: 2, Beta: beta, Gamma: 2, Delta: 1, Iterations: 30}
		res := SolveRO(p, h, SolveOptions{})
		// Mean pairwise distance among the three movie vectors.
		total := 0.0
		for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
			total += vec.SquaredDistance(res.W.Row(pair[0]), res.W.Row(pair[1]))
		}
		return total
	}
	s1, s3 := spread(1), spread(3)
	if s3 >= s1 {
		t.Fatalf("β should tighten categories: spread(β=1)=%v spread(β=3)=%v", s1, s3)
	}
}

// TestGammaPullsRelatedTogether mirrors Fig. 3c.
func TestGammaPullsRelatedTogether(t *testing.T) {
	p := fig3Problem(t)
	relDist := func(gamma float64) float64 {
		h := Hyperparams{Alpha: 2, Beta: 1, Gamma: gamma, Delta: 1, Iterations: 30}
		res := SolveRO(p, h, SolveOptions{})
		// Amelie <-> France.
		return vec.SquaredDistance(res.W.Row(2), res.W.Row(4))
	}
	d1, d3 := relDist(1), relDist(3)
	if d3 >= d1 {
		t.Fatalf("γ should pull related together: d(γ=1)=%v d(γ=3)=%v", d1, d3)
	}
}

// TestDeltaSeparates mirrors Fig. 3d: δ=0 lets vectors concentrate; δ>0
// pushes unrelated apart.
func TestDeltaSeparates(t *testing.T) {
	p := fig3Problem(t)
	unrelDist := func(delta float64) float64 {
		h := Hyperparams{Alpha: 2, Beta: 1, Gamma: 3, Delta: delta, Iterations: 30}
		res := SolveRO(p, h, SolveOptions{})
		// Inception <-> France (unrelated pair).
		return vec.SquaredDistance(res.W.Row(0), res.W.Row(4))
	}
	d0, d1 := unrelDist(0), unrelDist(1)
	if d1 <= d0 {
		t.Fatalf("δ should separate unrelated: d(δ=0)=%v d(δ=1)=%v", d0, d1)
	}
}

func TestConvexityCheck(t *testing.T) {
	p := fig3Problem(t)
	good := CheckConvexity(p, Hyperparams{Alpha: 3, Beta: 1, Gamma: 2, Delta: 0.5})
	if !good.Convex() || !good.Eq7Holds {
		t.Fatalf("good params flagged: %+v", good)
	}
	bad := CheckConvexity(p, Hyperparams{Alpha: 0.001, Beta: 1, Gamma: 2, Delta: 50})
	if bad.Eq7Holds {
		t.Fatalf("absurd δ passed eq.(7): %+v", bad)
	}
	neg := CheckConvexity(p, Hyperparams{Alpha: -1, Beta: 1, Gamma: 2, Delta: 0})
	if neg.NonNegativeParams || neg.Convex() {
		t.Fatal("negative α passed")
	}
	if good.WorstNode < 0 || good.WorstSlack <= 0 {
		t.Fatalf("worst-node diagnostics missing: %+v", good)
	}
}

// TestLossNegativePartMatchesNaive checks Loss, row by row over each
// node's source groups, against the reference: eqs. (4)–(6) pair by pair
// on the Figure 3 problem, and the dense-table sum-identity loss on the
// golden random problems under every golden hyperparameter set, at W0 and
// at the RN and RO solutions.
func TestLossNegativePartMatchesNaive(t *testing.T) {
	p := fig3Problem(t)
	h := Hyperparams{Alpha: 1, Beta: 1, Gamma: 2, Delta: 1, Iterations: 3}
	res := SolveRO(p, h, SolveOptions{})
	got := Loss(p, h, res.W)
	want := naiveLoss(p, h, res.W)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("efficient loss %v != naive loss %v", got, want)
	}

	for _, pc := range goldenProblems(t)[:2] {
		for _, hc := range goldenParams {
			for _, w := range []*vec.Matrix{pc.p.W0, SolveRN(pc.p, hc.h, SolveOptions{}).W, SolveRO(pc.p, hc.h, SolveOptions{}).W} {
				got, want := Loss(pc.p, hc.h, w), lossWithWeights(pc.p, deriveWeights(pc.p, hc.h), w)
				if math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Errorf("%s/%s: Loss %v, reference %v", pc.name, hc.name, got, want)
				}
			}
		}
	}
}

// naiveLoss evaluates eqs. (4)-(6) directly, materialising Ẽ_r.
func naiveLoss(p *Problem, h Hyperparams, w *vec.Matrix) float64 {
	weights := deriveWeights(p, h)
	var total float64
	for i := 0; i < p.N; i++ {
		total += weights.alpha[i] * vec.SquaredDistance(w.Row(i), p.W0.Row(i))
		total += weights.beta[i] * vec.SquaredDistance(w.Row(i), p.Centroids.Row(i))
	}
	for gi := range p.Groups {
		g := &p.Groups[gi]
		for i := 0; i < p.N; i++ {
			related := map[int]bool{}
			for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
				j := int(g.Targets[k])
				total += weights.gamma[gi][i] * vec.SquaredDistance(w.Row(i), w.Row(j))
				related[j] = true
			}
			if !g.SourceSet[i] {
				continue
			}
			for k := 0; k < p.N; k++ {
				if g.TargetSet[k] && !related[k] {
					total -= weights.deltaRO[gi] * vec.SquaredDistance(w.Row(i), w.Row(k))
				}
			}
		}
	}
	return total
}

func TestFaruquiBaseline(t *testing.T) {
	p := fig3Problem(t)
	res := SolveFaruqui(p, 1, 20)
	// Related pair (Amelie, France) must be closer than before.
	before := vec.SquaredDistance(p.W0.Row(2), p.W0.Row(4))
	after := vec.SquaredDistance(res.W.Row(2), res.W.Row(4))
	if after >= before {
		t.Fatalf("MF did not pull related pair together: %v -> %v", before, after)
	}
	// Loss (eq. 1) must not exceed the initial one.
	if FaruquiLoss(p, 1, res.W) >= FaruquiLoss(p, 1, p.W0) {
		t.Fatal("MF did not reduce the Faruqui loss")
	}
}

func TestFaruquiIsolatedNodeUnchanged(t *testing.T) {
	p, err := BuildManualProblem(ManualSpec{
		Dim:           2,
		NumCategories: 1,
		Values: []ManualValue{
			{Label: "a", Category: 0, Vector: []float64{1, 2}},
			{Label: "b", Category: 0, Vector: []float64{3, 4}},
		},
		// No relations at all.
	})
	if err != nil {
		t.Fatal(err)
	}
	res := SolveFaruqui(p, 1, 5)
	if !res.W.Equal(p.W0, 0) {
		t.Fatal("isolated nodes must keep their original vectors under MF")
	}
}

func TestFaruquiDefaults(t *testing.T) {
	p := fig3Problem(t)
	a := SolveFaruqui(p, 0, 0) // defaults: alpha=1, 20 iterations
	b := SolveFaruqui(p, 1, 20)
	if !a.W.Equal(b.W, 0) {
		t.Fatal("defaults wrong")
	}
	if a.Iterations != 20 {
		t.Fatal("iteration default wrong")
	}
}

func TestOOVNullVectorGetsMeaning(t *testing.T) {
	// A node with a null W0 connected to meaningful nodes must move away
	// from the origin (§3.1's promise).
	p, err := BuildManualProblem(ManualSpec{
		Dim:           2,
		NumCategories: 2,
		Values: []ManualValue{
			{Label: "oov-movie", Category: 0, Vector: []float64{0, 0}},
			{Label: "usa", Category: 1, Vector: []float64{1, 1}},
		},
		Relations: []ManualRelation{{Name: "r", Edges: []Edge{{0, 1}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := SolveRO(p, Hyperparams{Alpha: 1, Beta: 1, Gamma: 3, Delta: 0, Iterations: 20}, SolveOptions{})
	if vec.Norm(res.W.Row(0)) < 0.1 {
		t.Fatalf("OOV vector stayed at origin: %v", res.W.Row(0))
	}
	// It should land near its related neighbour.
	if vec.Cosine(res.W.Row(0), res.W.Row(1)) < 0.9 {
		t.Fatalf("OOV vector not aligned with neighbour: %v", res.W.Row(0))
	}
}

func TestSolveDispatch(t *testing.T) {
	p := fig3Problem(t)
	ro := Solve(p, DefaultRO(), RO, ParallelOptions{})
	rn := Solve(p, DefaultRN(), RN, ParallelOptions{})
	if !ro.W.Equal(SolveRO(p, DefaultRO(), SolveOptions{}).W, 0) || !rn.W.Equal(SolveRN(p, DefaultRN(), SolveOptions{}).W, 0) {
		t.Fatal("Solve must run the variant it is given")
	}
	if ro.W.Equal(rn.W, 1e-9) {
		t.Fatal("RO and RN should differ")
	}
	if RO.String() != "RO" || RN.String() != "RN" || Variant(9).String() == "" {
		t.Fatal("Variant.String wrong")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	ro, rn := DefaultRO(), DefaultRN()
	if ro.Alpha != 1 || ro.Beta != 0 || ro.Gamma != 3 || ro.Delta != 3 {
		t.Fatalf("DefaultRO = %+v", ro)
	}
	if rn.Alpha != 1 || rn.Beta != 0 || rn.Gamma != 3 || rn.Delta != 1 {
		t.Fatalf("DefaultRN = %+v", rn)
	}
	if ro.String() == "" {
		t.Fatal("String empty")
	}
}

func TestIncrementalMatchesFullSolve(t *testing.T) {
	p := fig3Problem(t)
	h := Hyperparams{Alpha: 3, Beta: 1, Gamma: 2, Delta: 0.5, Iterations: 200}

	full := SolveRO(p, h, SolveOptions{})

	// Start from the converged solution, corrupt two nodes, and repair
	// them incrementally with the others fixed. Since the fixed nodes are
	// already at the joint fixed point, local repair must restore it.
	w := full.W.Clone()
	vec.Fill(w.Row(0), 9)
	vec.Fill(w.Row(3), -9)
	sweeps := UpdateIncremental(p, w, NewIncrementalState(p, w), []int{0, 3}, h, RO, IncrementalOptions{MaxIterations: 300, Tolerance: 1e-12})
	if sweeps <= 0 {
		t.Fatal("no sweeps performed")
	}
	if !w.Equal(full.W, 1e-6) {
		t.Fatalf("incremental repair diverges from full solve\n got %v\nwant %v", w, full.W)
	}
}

func TestIncrementalRN(t *testing.T) {
	p := fig3Problem(t)
	h := Hyperparams{Alpha: 1, Beta: 1, Gamma: 3, Delta: 1, Iterations: 200}
	full := SolveRN(p, h, SolveOptions{})
	w := full.W.Clone()
	vec.Fill(w.Row(2), 5)
	UpdateIncremental(p, w, NewIncrementalState(p, w), []int{2}, h, RN, IncrementalOptions{MaxIterations: 300, Tolerance: 1e-12})
	if !w.Equal(full.W, 1e-6) {
		t.Fatal("RN incremental repair diverges from full solve")
	}
}

func TestIncrementalIgnoresOutOfRange(t *testing.T) {
	p := fig3Problem(t)
	h := DefaultRO()
	res := SolveRO(p, h, SolveOptions{})
	w := res.W.Clone()
	UpdateIncremental(p, w, NewIncrementalState(p, w), []int{-1, 999}, h, RO, IncrementalOptions{})
	if !w.Equal(res.W, 0) {
		t.Fatal("out-of-range dirty ids must be ignored")
	}
}

func TestAffectedNodes(t *testing.T) {
	p := fig3Problem(t)
	got := AffectedNodes(p, []int{0}, 0)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("hops=0: %v", got)
	}
	// 1 hop from Inception: USA.
	got = AffectedNodes(p, []int{0}, 1)
	if len(got) != 2 {
		t.Fatalf("hops=1: %v", got)
	}
	// 2 hops: USA's inverse neighbours (Inception, Godfather).
	got = AffectedNodes(p, []int{0}, 2)
	if len(got) != 3 {
		t.Fatalf("hops=2: %v", got)
	}
	// Whole reachable set (France/Amelie are in a separate component).
	got = AffectedNodes(p, []int{0}, 10)
	if len(got) != 3 {
		t.Fatalf("hops=10: %v", got)
	}
	// Out-of-range seeds ignored.
	if got := AffectedNodes(p, []int{-5, 99}, 3); len(got) != 0 {
		t.Fatalf("bad seeds: %v", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := fig3Problem(t)
	p.Groups[0].Inverse = 0 // break the twin link
	if err := p.Validate(); err == nil {
		t.Fatal("broken inverse link not caught")
	}
}
