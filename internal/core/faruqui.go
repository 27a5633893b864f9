package core

import (
	"slices"

	"github.com/retrodb/retro/internal/vec"
)

// SolveFaruqui runs the original retrofitting of Faruqui et al. (the MF
// baseline of §5) over the undirected union of all relation edges, using
// the simplified update of eq. (3):
//
//	v_i = ( α_i v'_i + Σ_{j:(i,j)∈E_F} β_i v_j ) / ( α_i + Σ β_i )
//
// with the standard configuration α_i = 1 and β_i = 1/degree(i) (§5.2).
// The paper runs 20 iterations on one thread; pass iterations <= 0 for
// that default. It is the solve driver with mfRow as the row kernel.
//
// The MF baseline models the database simply: every relation edge becomes
// an undirected lexicon edge, with no categorial term and no negative
// (dissimilarity) term — exactly the "simplified modeling of database
// relations" §5.3 credits for its speed and blames for its accuracy.
func SolveFaruqui(p *Problem, alpha float64, iterations int) *Result {
	if iterations <= 0 {
		iterations = 20
	}
	if alpha <= 0 {
		alpha = 1
	}
	return solve(p, Hyperparams{Alpha: alpha, Iterations: iterations}, mf, SolveOptions{}, 1)
}

// mfRow is the eq. (3) row update: node i's original vector weighted by
// α and its neighbours nbrs (ascending, undirectedAdjacency) each by
// 1/deg(i), over the denominator α + Σ β_i = α + 1. A node with no
// neighbours keeps its vector.
func mfRow(p *Problem, h Hyperparams, from *vec.Matrix, i int, nbrs []int32, dst []float64) {
	if len(nbrs) == 0 {
		copy(dst, from.Row(i))
		return
	}
	beta := 1 / float64(len(nbrs))
	vec.Zero(dst)
	vec.Axpy(dst, h.Alpha, p.W0.Row(i))
	for _, j := range nbrs {
		vec.Axpy(dst, beta, from.Row(int(j)))
	}
	vec.Scale(dst, 1/(h.Alpha+1))
}

// undirectedAdjacency merges every relation group's edges into one
// undirected, deduplicated adjacency (the lexicon graph E_F), node-major:
// node i's neighbours are list[ptr[i]:ptr[i+1]], ascending. Forward
// groups suffice: the inverse twins at odd indices mirror the same edges.
func undirectedAdjacency(p *Problem) (ptr []int, list []int32) {
	forward := func(fn func(from, to int)) {
		for gi := 0; gi < len(p.Groups); gi += 2 {
			p.Groups[gi].EachEdge(fn)
		}
	}
	ptr = make([]int, p.N+1)
	forward(func(from, to int) { ptr[from+1]++; ptr[to+1]++ })
	for i := 0; i < p.N; i++ {
		ptr[i+1] += ptr[i]
	}
	list = make([]int32, ptr[p.N])
	fill := slices.Clone(ptr[:p.N])
	forward(func(from, to int) {
		list[fill[from]], list[fill[to]] = int32(to), int32(from)
		fill[from]++
		fill[to]++
	})
	// Sort and deduplicate each node's neighbours, compacting list.
	n := 0
	for i := 0; i < p.N; i++ {
		nbrs := list[ptr[i]:ptr[i+1]]
		slices.Sort(nbrs)
		ptr[i] = n
		n += copy(list[n:], slices.Compact(nbrs))
	}
	ptr[p.N] = n
	return ptr, list[:n]
}
