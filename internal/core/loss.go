package core

import (
	"github.com/retrodb/retro/internal/vec"
)

// Loss evaluates the objective Ψ(W) of eqs. (4)–(6):
//
//	Ψ(W) = Σ_i [ α_i‖v_i−v'_i‖² + β_i Ψ_C(v_i) + Ψ_R(v_i) ]
//	Ψ_C(v_i) = ‖v_i − c_i‖²
//	Ψ_R(v_i) = Σ_r [ Σ_{(i,j)∈E_r} γ^r_i‖v_i−v_j‖² − Σ_{(i,k)∈Ẽ_r} δ^r_i‖v_i−v_k‖² ]
//
// row by row, each row over the groups node i is a source of, with the
// coefficients of rowCoeffs. The negative part runs over the complement
// Ẽ_r = S_r×T_r \ E_r; it is evaluated with the algebraic identity
// Σ_{k∈T}‖v_i−v_k‖² = |T|·‖v_i‖² − 2·v_i·Σ_{k∈T}v_k + Σ_{k∈T}‖v_k‖²,
// minus the pairs of E_r, so the cost stays O(nnz·D + n·D) instead of
// O(|S|·|T|·D).
func Loss(p *Problem, h Hyperparams, w *vec.Matrix) float64 {
	// Σ_{k∈T_g} v_k and Σ_{k∈T_g} ‖v_k‖² per group.
	sums := vec.NewMatrix(len(p.Groups), p.Dim)
	sqSums := make([]float64, len(p.Groups))
	if h.Delta != 0 {
		targetSums(p, w, sums, sharedTargetSets(p))
		for gi := range p.Groups {
			for k := 0; k < p.N; k++ {
				if p.Groups[gi].TargetSet[k] {
					sqSums[gi] += vec.Dot(w.Row(k), w.Row(k))
				}
			}
		}
	}
	groupPtr, groupList := sourceGroupLists(p)
	var total float64
	for i := 0; i < p.N; i++ {
		c := rowCoeffs(p, h, i)
		vi := w.Row(i)
		total += c.alpha * vec.SquaredDistance(vi, p.W0.Row(i))
		if c.beta != 0 {
			total += c.beta * vec.SquaredDistance(vi, p.Centroids.Row(i))
		}
		for _, gi := range groupList[groupPtr[i]:groupPtr[i+1]] {
			g := &p.Groups[gi]
			base, extra := g.TargetLists(i)
			gamma := c.gammaR(len(base) + len(extra))
			// Σ_{(i,j)∈E_r}‖v_i−v_j‖²: in the sum identity, but not in Ẽ_r.
			var relPairs float64
			for _, j := range base {
				relPairs += vec.SquaredDistance(vi, w.Row(int(j)))
			}
			for _, j := range extra {
				relPairs += vec.SquaredDistance(vi, w.Row(int(j)))
			}
			total += gamma * relPairs
			if dg := c.deltaRO(g); dg != 0 {
				allPairs := float64(g.TargetCount)*vec.Dot(vi, vi) - 2*vec.Dot(vi, sums.Row(int(gi))) + sqSums[gi]
				total -= dg * (allPairs - relPairs)
			}
		}
	}
	return total
}

// FaruquiLoss evaluates eq. (1), the original retrofitting objective, on
// the undirected union graph the MF baseline runs over.
func FaruquiLoss(p *Problem, alpha float64, w *vec.Matrix) float64 {
	ptr, list := undirectedAdjacency(p)
	var total float64
	for i := 0; i < p.N; i++ {
		total += alpha * vec.SquaredDistance(w.Row(i), p.W0.Row(i))
		nbrs := list[ptr[i]:ptr[i+1]]
		if len(nbrs) == 0 {
			continue
		}
		beta := 1 / float64(len(nbrs))
		for _, j := range nbrs {
			total += beta * vec.SquaredDistance(w.Row(i), w.Row(int(j)))
		}
	}
	return total
}
