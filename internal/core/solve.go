package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/retrodb/retro/internal/vec"
)

// Variant selects a relational retrofitting solver.
type Variant uint8

const (
	// RO is the optimisation-based solver (eq. 10).
	RO Variant = iota
	// RN is the series-based solver (eq. 11).
	RN
	// mf is the MF baseline (SolveFaruqui), reachable only from there.
	mf
)

func (v Variant) String() string {
	switch v {
	case RO:
		return "RO"
	case RN:
		return "RN"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Result carries a solved embedding matrix plus optional diagnostics.
type Result struct {
	// W holds the retrofitted vectors, row i for text value i.
	W *vec.Matrix
	// LossHistory holds Ψ(W) after every iteration when loss tracking is
	// enabled (nil otherwise).
	LossHistory []float64
	Iterations  int
}

// SolveOptions tunes solver execution.
type SolveOptions struct {
	// TrackLoss evaluates Ψ(W) after every iteration (costs one extra
	// pass; used by tests and the convergence experiments).
	TrackLoss bool
}

// ParallelOptions extends SolveOptions with a worker count.
type ParallelOptions struct {
	SolveOptions
	// Workers defaults to GOMAXPROCS.
	Workers int
}

func (o ParallelOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Solve runs the selected variant over opts.Workers row ranges.
func Solve(p *Problem, h Hyperparams, variant Variant, opts ParallelOptions) *Result {
	return solve(p, h, variant, opts.SolveOptions, opts.workers())
}

// SolveRO minimises Ψ (eq. 4) with the matrix iteration of eq. (10) on
// one worker, the paper's single-thread protocol (§5.3).
func SolveRO(p *Problem, h Hyperparams, opts SolveOptions) *Result {
	return solve(p, h, RO, opts, 1)
}

// SolveRN runs the series-based iteration of eq. (11) on one worker.
func SolveRN(p *Problem, h Hyperparams, opts SolveOptions) *Result {
	return solve(p, h, RN, opts, 1)
}

// SolveROParallel is SolveRO over opts.Workers row ranges.
func SolveROParallel(p *Problem, h Hyperparams, opts ParallelOptions) *Result {
	return Solve(p, h, RO, opts)
}

// SolveRNParallel is SolveRN over opts.Workers row ranges.
func SolveRNParallel(p *Problem, h Hyperparams, opts ParallelOptions) *Result {
	return Solve(p, h, RN, opts)
}

// solve is the one iteration driver. Every variant is Jacobi-style —
// every row of W^{k+1} depends only on W^k — so an iteration is: sum each
// distinct target set's vectors of W^k once (eqs. 15/16) when the
// repulsion term needs them, then produce every row of W^{k+1} with
// updateRow, the kernel delta repair also runs. Which groups share a
// target set and which groups each node is a source of (for MF: which
// nodes are its neighbours) depend only on the problem, so both are worked
// out once per solve. The row partition changes no floating-point
// evaluation order within a row or within a target sum, so W is
// bit-identical for every worker count.
func solve(p *Problem, h Hyperparams, variant Variant, opts SolveOptions, workers int) *Result {
	h = h.withDefaults()
	cur := p.W0.Clone()
	next := vec.NewMatrix(p.N, p.Dim)
	sums := vec.NewMatrix(len(p.Groups), p.Dim)
	shared := sharedTargetSets(p)
	adjacency := sourceGroupLists
	if variant == mf {
		adjacency = undirectedAdjacency
	}
	ptr, list := adjacency(p)
	scratch := vec.NewMatrix(workers, p.Dim)
	res := &Result{Iterations: h.Iterations}

	for iter := 0; iter < h.Iterations; iter++ {
		if h.Delta != 0 { // no kernel reads the sums without a repulsion term
			targetSums(p, cur, sums, shared)
		}
		parallelRows(p.N, workers, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				updateRow(p, h, variant, sums, cur, i, list[ptr[i]:ptr[i+1]], next.Row(i), scratch.Row(worker))
			}
		})
		cur, next = next, cur
		if opts.TrackLoss {
			res.LossHistory = append(res.LossHistory, Loss(p, h, cur))
		}
	}
	res.W = cur
	return res
}

// sharedTargetSets maps every group to the first group whose target set
// equals its own, itself when no earlier group's does. Sets are compared
// member by member once their TargetCounts agree, so two groups share a
// sum only when they sum the same rows.
func sharedTargetSets(p *Problem) []int {
	first := make([]int, len(p.Groups))
	var distinct []int
	for gi := range p.Groups {
		g := &p.Groups[gi]
		first[gi] = gi
		for _, r := range distinct {
			if rg := &p.Groups[r]; rg.TargetCount == g.TargetCount && slices.Equal(rg.TargetSet, g.TargetSet) {
				first[gi] = r
				break
			}
		}
		if first[gi] == gi {
			distinct = append(distinct, gi)
		}
	}
	return first
}

// targetSums overwrites row g of sums with Σ_{k∈T_g} w_k, the vector the
// repulsion terms of every source of group g share. first is
// sharedTargetSets(p): each distinct set is summed once, in ascending k,
// and a group whose set an earlier group already summed copies that row.
func targetSums(p *Problem, w, sums *vec.Matrix, first []int) {
	for gi := range p.Groups {
		sum := sums.Row(gi)
		if r := first[gi]; r != gi {
			copy(sum, sums.Row(r))
			continue
		}
		g := &p.Groups[gi]
		vec.Zero(sum)
		for k := 0; k < p.N; k++ {
			if g.TargetSet[k] {
				vec.Axpy(sum, 1, w.Row(k))
			}
		}
	}
}

// appendSourceGroups appends to dst, ascending, the groups in which node
// i is a source: the only groups whose terms its row update adds.
func appendSourceGroups(dst []int32, p *Problem, i int) []int32 {
	for gi := range p.Groups {
		if p.Groups[gi].OutDeg(i) > 0 {
			dst = append(dst, int32(gi))
		}
	}
	return dst
}

// sourceGroupLists is appendSourceGroups for every node, node-major:
// node i's groups are list[ptr[i]:ptr[i+1]].
func sourceGroupLists(p *Problem) (ptr []int, list []int32) {
	ptr = make([]int, p.N+1)
	total := 0
	for _, r := range p.NumRelTypes {
		total += r
	}
	list = make([]int32, 0, total)
	for i := 0; i < p.N; i++ {
		list = appendSourceGroups(list, p, i)
		ptr[i+1] = len(list)
	}
	return ptr, list
}

// updateRow writes node i's next vector into dst: one application of
// the variant's row update to the vectors in from, with sums holding the
// target sums of those same vectors and adj node i's source groups
// (appendSourceGroups), or for MF its neighbours (undirectedAdjacency).
// scratch must hold dim floats.
func updateRow(p *Problem, h Hyperparams, variant Variant, sums, from *vec.Matrix, i int, adj []int32, dst, scratch []float64) {
	switch variant {
	case RN:
		rnRow(p, h, sums, from, i, adj, dst)
	case mf:
		mfRow(p, h, from, i, adj, dst)
	default:
		roRow(p, h, sums, from, i, adj, dst, scratch)
	}
}

// parallelRows runs fn over [0, n) split into contiguous worker ranges,
// passing each a stable slot in [0, workers) for per-worker scratch.
func parallelRows(n, workers int, fn func(worker, lo, hi int)) {
	if workers <= 1 || n < 2*workers {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo, w := 0, 0; lo < n; lo, w = lo+chunk, w+1 {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
