package core

import (
	"github.com/retrodb/retro/internal/vec"
)

// IncrementalState carries the cross-repair bookkeeping that makes a
// local repair cost proportional to the dirty neighbourhood instead of
// the problem: the per-group Σ_{k∈T_r} v_k target sums that both
// solvers' repulsion terms (eqs. 15/16) need. Recomputing those sums
// inline — as the repair kernels originally did — costs O(n) per dirty
// node; maintaining them across vector updates costs O(dim) per group a
// node belongs to.
//
// The state is bound to one (Problem, W) pair: it must be grown via Grow
// whenever GrowProblem extends the problem, and every change to a row of
// W must go through UpdateIncremental (which keeps the sums in step). If
// W is mutated behind the state's back, discard and rebuild it.
type IncrementalState struct {
	sums *vec.Matrix // row g: Σ over group g's target set of w rows
}

// NewIncrementalState computes the target sums from scratch: O(n·|R|)
// membership checks plus O(dim) per membership. Done once per session,
// not per insert.
func NewIncrementalState(p *Problem, w *vec.Matrix) *IncrementalState {
	st := &IncrementalState{sums: vec.NewMatrix(len(p.Groups), p.Dim)}
	targetSums(p, w, st.sums, sharedTargetSets(p))
	return st
}

// Grow extends the state after GrowProblem: new groups get fresh sums and
// every node that newly joined a target set contributes its current
// vector. Call it after the new nodes' vectors are present in w.
func (st *IncrementalState) Grow(p *Problem, w *vec.Matrix, rep *GrowthReport) {
	st.sums.GrowRows(len(p.Groups))
	for _, gn := range rep.NewTargets {
		vec.Axpy(st.sums.Row(gn.Group), 1, w.Row(gn.Node))
	}
}

// apply folds a single node's vector change into the sums.
func (st *IncrementalState) apply(p *Problem, i int, diff []float64) {
	for gi := range p.Groups {
		if p.Groups[gi].TargetSet[i] {
			vec.Axpy(st.sums.Row(gi), 1, diff)
		}
	}
}

// IncrementalOptions tunes incremental maintenance.
type IncrementalOptions struct {
	// MaxIterations bounds the local fixed-point iteration (default 50).
	MaxIterations int
	// Tolerance stops iterating when no dirty vector moves more than this
	// L2 distance in one sweep (default 1e-9).
	Tolerance float64
}

func (o IncrementalOptions) withDefaults() IncrementalOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 50
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-9
	}
	return o
}

// UpdateIncremental re-solves only the given dirty nodes of an
// already-solved embedding in place, holding every other vector fixed.
// This is the §1 "incrementally maintainable" property: after inserting
// or changing rows, grow the problem (GrowProblem), carry over the old
// vectors for unchanged nodes, and pass the ids of new or affected
// values. Because both updates are contractions toward a fixed point,
// iterating the pointwise updates over the dirty set converges to the
// same values a full re-solve would assign given the fixed complement.
//
// st carries the target sums bound to (p, w), and is kept in step with
// every row the repair rewrites; with it maintained across repairs the
// cost per sweep is proportional to the dirty nodes' degrees,
// independent of the problem size.
//
// Returns the number of sweeps performed.
func UpdateIncremental(p *Problem, w *vec.Matrix, st *IncrementalState, dirty []int, h Hyperparams, variant Variant, opts IncrementalOptions) int {
	opts = opts.withDefaults()
	h = h.withDefaults()
	buf := make([]float64, p.Dim)
	scratch := make([]float64, p.Dim)
	diff := make([]float64, p.Dim)
	groups := make([]int32, 0, len(p.Groups))

	for sweep := 1; sweep <= opts.MaxIterations; sweep++ {
		maxMove := 0.0
		for _, i := range dirty {
			if i < 0 || i >= p.N {
				continue
			}
			groups = appendSourceGroups(groups[:0], p, i)
			updateRow(p, h, variant, st.sums, w, i, groups, buf, scratch)
			row := w.Row(i)
			move := 0.0
			for j := range diff {
				d := buf[j] - row[j]
				diff[j] = d
				move += d * d
			}
			if move > maxMove {
				maxMove = move
			}
			if move > 0 {
				copy(row, buf)
				st.apply(p, i, diff)
			}
		}
		if maxMove <= opts.Tolerance*opts.Tolerance {
			return sweep
		}
	}
	return opts.MaxIterations
}

// AffectedNodes expands a set of seed node ids to every node within
// `hops` relation steps, the neighbourhood worth re-solving after a
// change. hops=0 returns the seeds themselves. The result is in
// deterministic BFS discovery order.
func AffectedNodes(p *Problem, seeds []int, hops int) []int {
	return AffectedNodesBudget(p, seeds, hops, 0)
}

// AffectedNodesBudget is AffectedNodes with a size cap: expansion stops
// once the set holds maxNodes ids (0 = unlimited). In-range seeds are
// always included, even beyond the budget, so newly inserted values are
// never dropped from a repair; the cap only bounds how far their
// influence is chased through the graph — without it, one insert
// touching a high-degree hub value (a language, say) would schedule a
// re-solve of most of the database.
func AffectedNodesBudget(p *Problem, seeds []int, hops, maxNodes int) []int {
	seen := make(map[int]bool, len(seeds))
	out := make([]int, 0, len(seeds))
	for _, s := range seeds {
		if s >= 0 && s < p.N && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	frontier := out
	for h := 0; h < hops; h++ {
		if maxNodes > 0 && len(out) >= maxNodes {
			break
		}
		var next []int
		for _, i := range frontier {
			for gi := range p.Groups {
				g := &p.Groups[gi]
				base, extra := g.TargetLists(i)
				for _, j32 := range base {
					j := int(j32)
					if !seen[j] {
						seen[j] = true
						out = append(out, j)
						next = append(next, j)
						if maxNodes > 0 && len(out) >= maxNodes {
							return out
						}
					}
				}
				for _, j32 := range extra {
					j := int(j32)
					if !seen[j] {
						seen[j] = true
						out = append(out, j)
						next = append(next, j)
						if maxNodes > 0 && len(out) >= maxNodes {
							return out
						}
					}
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return out
}
