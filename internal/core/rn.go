package core

import (
	"github.com/retrodb/retro/internal/vec"
)

// rnRow is the series-based row update of eq. (9)/(11): the numerator
// attracts node i to its original vector, its column centroid and its
// related nodes, repels it from the summed targets of each of its
// relation groups (eq. 16: sums holds that vector, shared by all of a
// group's sources), and the result is normalised to unit length — the
// division in eq. (9) — which keeps the series bounded for any
// hyperparameter setting; a zero row stays zero. groups lists the groups
// node i is a source of, ascending (appendSourceGroups); no other group
// contributes. The eq. (12)/(14) coefficients are computed on the fly, so
// one row costs O(deg·dim + |R_i|·dim) whether it is one of N in a full
// iteration or one of a few in a repair.
func rnRow(p *Problem, h Hyperparams, sums, from *vec.Matrix, i int, groups []int32, dst []float64) {
	rt := float64(p.NumRelTypes[i] + 1)
	vec.Zero(dst)
	vec.Axpy(dst, h.Alpha, p.W0.Row(i))
	if beta := h.Beta / rt; beta != 0 {
		vec.Axpy(dst, beta, p.Centroids.Row(i))
	}
	for _, g32 := range groups {
		gi := int(g32)
		g := &p.Groups[gi]
		base, extra := g.TargetLists(i)
		od := len(base) + len(extra)
		gamma := h.Gamma / (float64(od) * rt)
		for _, j := range base {
			vec.Axpy(dst, gamma, from.Row(int(j)))
		}
		for _, j := range extra {
			vec.Axpy(dst, gamma, from.Row(int(j)))
		}
		if h.Delta != 0 && g.TargetCount > 0 {
			vec.Axpy(dst, -h.Delta/(float64(g.TargetCount)*rt), sums.Row(gi))
		}
	}
	vec.Normalize(dst)
}
