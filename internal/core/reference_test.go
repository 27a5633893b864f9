package core

import (
	"sort"

	"github.com/retrodb/retro/internal/vec"
)

// The independent textbook reference the solver is tested against: eq.
// (8) and eq. (9) written straight from the paper over deriveWeights'
// dense coefficient tables, with the complement Ẽ_r materialised pair by
// pair and the target set re-scanned per node. It shares no code with
// rnRow / roRow, rowCoeffs or Loss, and none of their optimisations
// (eqs. 15/16). The MF baseline's reference is its own Jacobi loop over
// a [][]int32 adjacency.

// weights holds every derived per-node/per-group coefficient used by the
// reference updates and losses. Built once per (problem, hyperparams) pair.
type weights struct {
	h Hyperparams

	// alpha[i], beta[i]: eq. (12). beta_i = β / (|R_i|+1).
	alpha []float64
	beta  []float64

	// gamma[g][i] = γ / (od_g(i) · (|R_i|+1)) for sources of group g
	// (eq. 12), else 0.
	gamma [][]float64

	// deltaRO[g] is the constant δ^r of eq. (13): δ / (mc(r)·mr(r)).
	// It applies to every pair of Ẽ_g.
	deltaRO []float64

	// deltaRN[g][i] weights the series solver's repulsion term for
	// sources of group g (eq. 14). §4.2's text states the series
	// subtracts "the centroid of all target vectors in the relation",
	// so the weight is δ / (|T_r| · (|R_i|+1)): the Σ_{k∈T_r} v_k of
	// eq. (16) times this weight equals δ/(|R_i|+1) times the centroid.
	// (Reading eq. 14's |{j:(i,j)∈E_r}| as the per-source out-degree
	// instead makes the repulsion grow with |T_r| and collapses all
	// vectors onto one direction for any realistically sized relation.)
	deltaRN [][]float64
}

// deriveWeights computes eqs. (12)–(14) for a problem.
func deriveWeights(p *Problem, h Hyperparams) *weights {
	h = h.withDefaults()
	w := &weights{
		h:       h,
		alpha:   make([]float64, p.N),
		beta:    make([]float64, p.N),
		gamma:   make([][]float64, len(p.Groups)),
		deltaRO: make([]float64, len(p.Groups)),
		deltaRN: make([][]float64, len(p.Groups)),
	}
	for i := 0; i < p.N; i++ {
		w.alpha[i] = h.Alpha
		w.beta[i] = h.Beta / float64(p.NumRelTypes[i]+1)
	}
	for gi := range p.Groups {
		g := &p.Groups[gi]
		gamma := make([]float64, p.N)
		deltaRN := make([]float64, p.N)
		for i := 0; i < p.N; i++ {
			od := g.OutDeg(i)
			if od == 0 {
				continue
			}
			relTypes := float64(p.NumRelTypes[i] + 1)
			gamma[i] = h.Gamma / (float64(od) * relTypes)
			if g.TargetCount > 0 {
				deltaRN[i] = h.Delta / (float64(g.TargetCount) * relTypes)
			}
		}
		w.gamma[gi] = gamma
		w.deltaRN[gi] = deltaRN
		w.deltaRO[gi] = deltaRO(g, h)
	}
	return w
}

// deltaRO computes the constant δ^r of eq. (13) for one group:
// δ / (mc(r)·mr(r)) with mc(r) = max(|S_r|, |T_r|) and mr(r) the cached
// group maximum of |R_i|+1 over participants.
func deltaRO(g *Group, h Hyperparams) float64 {
	mc := g.SourceCount
	if g.TargetCount > mc {
		mc = g.TargetCount
	}
	if mc <= 0 || g.MaxRel <= 0 {
		return 0
	}
	return h.Delta / (float64(mc) * float64(g.MaxRel))
}

// lossWithWeights is Loss over the dense tables: group by group, the
// negative part by the eq. (15) sum identity.
func lossWithWeights(p *Problem, weights *weights, w *vec.Matrix) float64 {
	var total float64
	for i := 0; i < p.N; i++ {
		total += weights.alpha[i] * vec.SquaredDistance(w.Row(i), p.W0.Row(i))
		if weights.beta[i] != 0 {
			total += weights.beta[i] * vec.SquaredDistance(w.Row(i), p.Centroids.Row(i))
		}
	}
	sumT := make([]float64, p.Dim)
	for gi := range p.Groups {
		g := &p.Groups[gi]
		gamma := weights.gamma[gi]
		dg := weights.deltaRO[gi]

		// Positive part over E_r.
		for i := 0; i < p.N; i++ {
			if g.OutDeg(i) == 0 {
				continue
			}
			base, extra := g.TargetLists(i)
			for _, j := range base {
				total += gamma[i] * vec.SquaredDistance(w.Row(i), w.Row(int(j)))
			}
			for _, j := range extra {
				total += gamma[i] * vec.SquaredDistance(w.Row(i), w.Row(int(j)))
			}
		}
		if dg == 0 {
			continue
		}

		// Negative part over Ẽ_r via the sum identity.
		vec.Zero(sumT)
		var sumSqT float64
		for k := 0; k < p.N; k++ {
			if g.TargetSet[k] {
				r := w.Row(k)
				vec.Axpy(sumT, 1, r)
				sumSqT += vec.Dot(r, r)
			}
		}
		nT := float64(g.TargetCount)
		for i := 0; i < p.N; i++ {
			if !g.SourceSet[i] {
				continue
			}
			vi := w.Row(i)
			normSq := vec.Dot(vi, vi)
			allPairs := nT*normSq - 2*vec.Dot(vi, sumT) + sumSqT
			// Subtract the related (positive) pairs to leave only Ẽ_r.
			var relPairs float64
			base, extra := g.TargetLists(i)
			for _, j := range base {
				relPairs += vec.SquaredDistance(vi, w.Row(int(j)))
			}
			for _, j := range extra {
				relPairs += vec.SquaredDistance(vi, w.Row(int(j)))
			}
			total -= dg * (allPairs - relPairs)
		}
	}
	return total
}

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

// solveFaruquiNaive is eq. (3)'s sequential Jacobi loop over its own
// undirected adjacency lists, as SolveFaruqui ran before it became a row
// kernel of solve.
func solveFaruquiNaive(p *Problem, alpha float64, iterations int) *vec.Matrix {
	adj := make([][]int32, p.N)
	for gi := range p.Groups {
		if gi%2 == 1 {
			continue // skip inverse twins; edges identical reversed
		}
		g := &p.Groups[gi]
		g.EachEdge(func(from, to int) {
			adj[from] = append(adj[from], int32(to))
			adj[to] = append(adj[to], int32(from))
		})
	}
	for i := range adj {
		nbrs := adj[i]
		sort.Slice(nbrs, func(a, b int) bool { return nbrs[a] < nbrs[b] })
		dedup := nbrs[:0]
		var last int32 = -1
		for _, v := range nbrs {
			if v != last {
				dedup = append(dedup, v)
				last = v
			}
		}
		adj[i] = dedup
	}

	cur := p.W0.Clone()
	next := vec.NewMatrix(p.N, p.Dim)
	for iter := 0; iter < iterations; iter++ {
		for i := 0; i < p.N; i++ {
			row := next.Row(i)
			nbrs := adj[i]
			if len(nbrs) == 0 {
				copy(row, cur.Row(i))
				continue
			}
			beta := 1 / float64(len(nbrs))
			vec.Zero(row)
			vec.Axpy(row, alpha, p.W0.Row(i))
			for _, j := range nbrs {
				vec.Axpy(row, beta, cur.Row(int(j)))
			}
			// Denominator: α + Σ β_i = α + deg·(1/deg) = α + 1.
			vec.Scale(row, 1/(alpha+1))
		}
		cur, next = next, cur
	}
	return cur
}
