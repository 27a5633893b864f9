package core

import (
	"github.com/retrodb/retro/internal/vec"
)

// The independent textbook reference the solver is tested against: eq.
// (8) and eq. (9) written straight from the paper over deriveWeights'
// dense coefficient tables, with the complement Ẽ_r materialised pair by
// pair and the target set re-scanned per node. It shares no code with
// rnRow / roRow and none of their optimisations (eqs. 15/16).

// rnUpdateNode is the pointwise eq. (9) update for one node.
func rnUpdateNode(p *Problem, w *weights, from *vec.Matrix, i int, dst []float64) {
	vec.Zero(dst)
	vec.Axpy(dst, w.alpha[i], p.W0.Row(i))
	if w.beta[i] != 0 {
		vec.Axpy(dst, w.beta[i], p.Centroids.Row(i))
	}
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if g.OutDeg(i) == 0 {
			continue
		}
		gamma := w.gamma[gi]
		deltaRN := w.deltaRN[gi]
		base, extra := g.TargetLists(i)
		for _, j := range base {
			vec.Axpy(dst, gamma[i], from.Row(int(j)))
		}
		for _, j := range extra {
			vec.Axpy(dst, gamma[i], from.Row(int(j)))
		}
		if deltaRN[i] != 0 {
			for t := 0; t < p.N; t++ {
				if g.TargetSet[t] {
					vec.Axpy(dst, -deltaRN[i], from.Row(t))
				}
			}
		}
	}
	vec.Normalize(dst)
}

// roUpdateNode is the pointwise eq. (8) update for one node.
func roUpdateNode(p *Problem, w *weights, from *vec.Matrix, i int, dst []float64) {
	vec.Zero(dst)
	vec.Axpy(dst, w.alpha[i], p.W0.Row(i))
	if w.beta[i] != 0 {
		vec.Axpy(dst, w.beta[i], p.Centroids.Row(i))
	}
	denom := w.alpha[i] + w.beta[i]
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if g.OutDeg(i) == 0 {
			continue
		}
		gammaSelf := w.gamma[gi]
		gammaInv := w.gamma[g.Inverse]
		dg := w.deltaRO[gi]
		related := make(map[int]bool, g.OutDeg(i))
		attract := func(j int) {
			weight := gammaSelf[i] + gammaInv[j]
			vec.Axpy(dst, weight, from.Row(j))
			denom += weight
			related[j] = true
		}
		base, extra := g.TargetLists(i)
		for _, j := range base {
			attract(int(j))
		}
		for _, j := range extra {
			attract(int(j))
		}
		if dg == 0 {
			continue
		}
		for t := 0; t < p.N; t++ {
			if g.TargetSet[t] && !related[t] {
				vec.Axpy(dst, -2*dg, from.Row(t))
				denom -= 2 * dg
			}
		}
	}
	if denom != 0 {
		vec.Scale(dst, 1/denom)
	}
}

// solveNaive is the Jacobi loop over the pointwise reference updates.
func solveNaive(p *Problem, h Hyperparams, variant Variant) *vec.Matrix {
	h = h.withDefaults()
	w := deriveWeights(p, h)
	cur := p.W0.Clone()
	next := vec.NewMatrix(p.N, p.Dim)
	for iter := 0; iter < h.Iterations; iter++ {
		for i := 0; i < p.N; i++ {
			if variant == RN {
				rnUpdateNode(p, w, cur, i, next.Row(i))
			} else {
				roUpdateNode(p, w, cur, i, next.Row(i))
			}
		}
		cur, next = next, cur
	}
	return cur
}
