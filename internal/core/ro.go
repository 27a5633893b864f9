package core

import (
	"github.com/retrodb/retro/internal/vec"
)

// roRow is the optimisation-based row update of eq. (8)/(10).
//
// The set R of the paper contains every directed group and its inverse;
// for group r the positive term is ((γ^r_ij) + (γ^r̄_ij)^T)·W, which on
// row i sums (γ^r_i + γ^r̄_j)·v_j over outgoing edges (i,j). The negative
// term runs over the complement Ẽ_r = S_r × T_r \ E_r and is computed via
// the eq. (15) trick: the shared Σ_{k∈T_r} v_k in sums, minus the node's
// actual neighbour sum, so one row costs O(deg·dim + |R_i|·dim) instead
// of O(n·dim); each neighbour row is read once, feeding both the attraction
// and that neighbour sum. The row is divided by its entry of the diagonal
// D, which is accumulated alongside. groups lists the groups node i is a
// source of, ascending (appendSourceGroups). scratch must hold dim
// floats.
func roRow(p *Problem, h Hyperparams, sums, from *vec.Matrix, i int, groups []int32, dst, scratch []float64) {
	c := rowCoeffs(p, h, i)
	vec.Zero(dst)
	vec.Axpy(dst, c.alpha, p.W0.Row(i))
	if c.beta != 0 {
		vec.Axpy(dst, c.beta, p.Centroids.Row(i))
	}
	denom := c.alpha + c.beta
	for _, g32 := range groups {
		gi := int(g32)
		g := &p.Groups[gi]
		base, extra := g.TargetLists(i)
		od := len(base) + len(extra)
		gammaSelf := c.gammaR(od)
		inv := &p.Groups[g.Inverse]
		nbrSum := scratch
		vec.Zero(nbrSum)
		attract := func(j int) {
			// γ^r̄_j: j is a target of g, hence a source of the inverse.
			weight := gammaSelf + gammaOf(c.gamma, inv.OutDeg(j), float64(p.NumRelTypes[j]+1))
			vec.AxpyAcc(dst, weight, from.Row(j), nbrSum)
			denom += weight
		}
		for _, j := range base {
			attract(int(j))
		}
		for _, j := range extra {
			attract(int(j))
		}
		if dg := c.deltaRO(g); dg != 0 {
			// -(2·d_g)·(Σ_{k∈T} v_k − Σ_{k∈N(i)} v_k); the diagonal loses
			// Σ_{k:(i,k)∈Ẽ_r} (δ^r_i + δ^r̄_k) = 2·d_g·(|T_r| − od_r(i)).
			vec.Axpy(dst, -2*dg, sums.Row(gi))
			vec.Axpy(dst, 2*dg, nbrSum)
			denom -= 2 * dg * float64(g.TargetCount-od)
		}
	}
	if denom != 0 {
		vec.Scale(dst, 1/denom)
	}
}
