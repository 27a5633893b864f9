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
// contributes. The eq. (12)/(14) coefficients come from rowCoeffs, so one
// row costs O(deg·dim + |R_i|·dim) whether it is one of N in a full
// iteration or one of a few in a repair.
func rnRow(p *Problem, h Hyperparams, sums, from *vec.Matrix, i int, groups []int32, dst []float64) {
	c := rowCoeffs(p, h, i)
	vec.Zero(dst)
	vec.Axpy(dst, c.alpha, p.W0.Row(i))
	if c.beta != 0 {
		vec.Axpy(dst, c.beta, p.Centroids.Row(i))
	}
	for _, g32 := range groups {
		gi := int(g32)
		g := &p.Groups[gi]
		base, extra := g.TargetLists(i)
		gamma := c.gammaR(len(base) + len(extra))
		for _, j := range base {
			vec.Axpy(dst, gamma, from.Row(int(j)))
		}
		for _, j := range extra {
			vec.Axpy(dst, gamma, from.Row(int(j)))
		}
		if delta := c.deltaRN(g); delta != 0 {
			vec.Axpy(dst, -delta, sums.Row(gi))
		}
	}
	vec.Normalize(dst)
}
