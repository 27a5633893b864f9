package core

import (
	"fmt"
	"runtime"
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

// solve is the one iteration driver. Both variants are Jacobi-style —
// every row of W^{k+1} depends only on W^k — so an iteration is: sum each
// group's target vectors of W^k once (eqs. 15/16), then produce every row
// of W^{k+1} with updateRow, the kernel delta repair also runs. The row
// partition changes no floating-point evaluation order within a row or
// within a target sum, so W is bit-identical for every worker count.
func solve(p *Problem, h Hyperparams, variant Variant, opts SolveOptions, workers int) *Result {
	h = h.withDefaults()
	cur := p.W0.Clone()
	next := vec.NewMatrix(p.N, p.Dim)
	sums := vec.NewMatrix(len(p.Groups), p.Dim)
	scratch := vec.NewMatrix(workers, p.Dim)
	var lossWeights *weights
	if opts.TrackLoss {
		lossWeights = deriveWeights(p, h)
	}
	res := &Result{Iterations: h.Iterations}

	for iter := 0; iter < h.Iterations; iter++ {
		if h.Delta != 0 { // no kernel reads the sums without a repulsion term
			targetSums(p, cur, sums)
		}
		parallelRows(p.N, workers, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				updateRow(p, h, variant, sums, cur, i, next.Row(i), scratch.Row(worker))
			}
		})
		cur, next = next, cur
		if opts.TrackLoss {
			res.LossHistory = append(res.LossHistory, lossWithWeights(p, lossWeights, cur))
		}
	}
	res.W = cur
	return res
}

// targetSums overwrites row g of sums with Σ_{k∈T_g} w_k, the vector the
// repulsion terms of every source of group g share.
func targetSums(p *Problem, w, sums *vec.Matrix) {
	for gi := range p.Groups {
		g := &p.Groups[gi]
		sum := sums.Row(gi)
		vec.Zero(sum)
		for k := 0; k < p.N; k++ {
			if g.TargetSet[k] {
				vec.Axpy(sum, 1, w.Row(k))
			}
		}
	}
}

// updateRow writes node i's next vector into dst: one application of
// the variant's row update to the vectors in from, with sums holding the
// target sums of those same vectors. scratch must hold dim floats.
func updateRow(p *Problem, h Hyperparams, variant Variant, sums, from *vec.Matrix, i int, dst, scratch []float64) {
	if variant == RN {
		rnRow(p, h, sums, from, i, dst)
	} else {
		roRow(p, h, sums, from, i, dst, scratch)
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
