// Package core implements the paper's contribution: relational
// retrofitting (RETRO). It assembles the learning problem of §4.2 from an
// extraction and an initial embedding, derives the hyperparameter
// weighting of §4.4 (eqs. 12–14), and solves it with either the
// optimisation-based iteration RO (eq. 10, with the complement
// optimisation of eq. 15) or the series-based iteration RN (eq. 11, with
// the precomputed target sums of eq. 16).
//
// There is one solver: a driver (solve.go) and three row kernels (roRow
// in ro.go, rnRow in rn.go, and mfRow in faruqui.go for the original
// retrofitting baseline of Faruqui et al., MF). Every iteration is
// Jacobi-style — row i of W^{k+1} is a function of W^k, the per-group
// target sums of W^k and node i's own adjacency — so an iteration fills
// the target sums once (when δ ≠ 0; MF has none) and then calls the
// variant's kernel for every row, over one range of rows or several. A
// kernel evaluates its row in a fixed order whatever range it was called
// from, which makes SolveRO/SolveRN (one range) and
// SolveROParallel/SolveRNParallel (several) bit-identical by
// construction. Delta repair (UpdateIncremental) calls the same kernels
// for the dirty rows only, in place, against target sums it maintains
// across repairs instead of refilling — so a repair applies exactly the
// update a full solve would apply to that row. The eq. (12)–(14)
// coefficients are written once, in rowCoeffs (params.go); the RO and RN
// kernels, Loss and CheckConvexity all derive them there, row by row.
package core

import (
	"fmt"

	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/tokenize"
	"github.com/retrodb/retro/internal/vec"
)

// Edge is a directed relation edge between problem node ids.
type Edge struct{ From, To int }

// Group is one *directed* relation group. The paper's set R contains each
// extracted relation r together with its inverse r̄; Problem.Groups stores
// both, cross-linked via Inverse.
//
// Adjacency is a frozen CSR base plus a small overflow: GrowProblem
// appends edges into the per-source overflow lists so that adding an edge
// never rewrites the CSR arrays (which would cost O(|E_r| + n) per
// insert). Iteration goes through TargetLists/EachEdge, which cover both;
// once the overflow outgrows a fraction of the base the group is
// compacted back into pure CSR, keeping appends amortised O(1).
type Group struct {
	Name    string
	Inverse int // index of the inverse group within Problem.Groups

	// CSR-style adjacency over sources: for node i the base targets are
	// Targets[RowPtr[i]:RowPtr[i+1]]. The base covers the nodes that
	// existed when it was built; nodes appended later have no base row
	// (OutDeg treats them as empty) and live purely in the overflow.
	RowPtr  []int
	Targets []int32

	// extra holds edges appended after the base CSR was built, keyed by
	// source node; extraEdges counts them.
	extra      map[int32][]int32
	extraEdges int

	// SourceSet / TargetSet flag membership; SourceCount/TargetCount are
	// |S_r| and |T_r| (mc(r) of eq. 13 = max of the two).
	SourceSet   []bool
	TargetSet   []bool
	SourceCount int
	TargetCount int

	// MaxRel caches mr(r) of eq. (13): max |R_i|+1 over every node that
	// participates in E_r ∪ E_r̄. Problem growth only ever adds edges, so
	// the max is monotone and can be maintained incrementally.
	MaxRel int
}

// baseDeg returns the out-degree within the frozen CSR base.
func (g *Group) baseDeg(i int) int {
	if i+1 >= len(g.RowPtr) {
		return 0 // node appended after the base was built, or empty base
	}
	return g.RowPtr[i+1] - g.RowPtr[i]
}

// OutDeg returns od_r(i) = |{j : (i,j) ∈ E_r}| (eq. 12).
func (g *Group) OutDeg(i int) int { return g.baseDeg(i) + len(g.extra[int32(i)]) }

// TargetLists returns node i's targets as two slices — the frozen CSR
// base and the appended overflow — so hot loops iterate without closure
// overhead. Either slice may be empty; neither may be mutated.
func (g *Group) TargetLists(i int) (base, extra []int32) {
	if i+1 < len(g.RowPtr) {
		base = g.Targets[g.RowPtr[i]:g.RowPtr[i+1]]
	}
	return base, g.extra[int32(i)]
}

// EachEdge calls fn for every (from, to) edge of the group.
func (g *Group) EachEdge(fn func(from, to int)) {
	for i := 0; i+1 < len(g.RowPtr); i++ {
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			fn(i, int(g.Targets[k]))
		}
	}
	for from, targets := range g.extra {
		for _, to := range targets {
			fn(int(from), int(to))
		}
	}
}

// NumEdges returns |E_r|.
func (g *Group) NumEdges() int { return len(g.Targets) + g.extraEdges }

// Problem is the assembled §4.2 learning problem: n text values with
// initial vectors W0, per-value category centroids, and the directed
// relation groups (forward + inverse).
type Problem struct {
	N   int
	Dim int

	// W0 is the initial embedding (eq. 4's v'_i), built by §3.1
	// tokenization; OOV rows are null vectors.
	W0 *vec.Matrix
	// Centroid[i] is c_i of eq. (5): the (constant) mean of the ORIGINAL
	// vectors of i's column.
	Centroids *vec.Matrix
	// CategoryOf maps node id -> category id; Categories mirrors the
	// extraction's category list for labelling.
	CategoryOf []int
	Labels     []string // human-readable node labels (the text values)

	Groups []Group

	// NumRelTypes[i] is |R_i|: the number of directed groups in which node
	// i participates as a source (eq. 12 weights use |R_i|+1).
	NumRelTypes []int

	// catSums/catCounts back incremental centroid maintenance: per
	// category, the running sum of the ORIGINAL (W0) member vectors and
	// the member count, so a grown problem can refresh any node's
	// Centroids row in O(dim) without re-scanning the column.
	catSums   *vec.Matrix
	catCounts []int
}

// RefreshCentroids rewrites the Centroids rows of the given nodes from
// the per-category running sums, bringing them up to date after the
// categories gained members through GrowProblem. Only the rows about to
// be re-solved need refreshing; unread rows may stay stale.
func (p *Problem) RefreshCentroids(ids []int) {
	if p.catSums == nil {
		return // hand-built problem that was never grown
	}
	for _, i := range ids {
		if i < 0 || i >= p.N {
			continue
		}
		c := p.CategoryOf[i]
		row := p.Centroids.Row(i)
		if n := p.catCounts[c]; n > 0 {
			copy(row, p.catSums.Row(c))
			vec.Scale(row, 1/float64(n))
		} else {
			vec.Zero(row)
		}
	}
}

// BuildProblem assembles the learning problem from an extraction and the
// tokenizer over the base embedding (§3.1 initialisation). All vectors and
// weights are deterministic.
func BuildProblem(ex *extract.Extraction, tok *tokenize.Tokenizer) *Problem {
	n := len(ex.Values)
	dim := tok.Store().Dim()
	p := &Problem{
		N:          n,
		Dim:        dim,
		W0:         vec.NewMatrix(n, dim),
		Centroids:  vec.NewMatrix(n, dim),
		CategoryOf: make([]int, n),
		Labels:     make([]string, n),
	}
	for _, v := range ex.Values {
		tok.InitialVector(p.W0.Row(v.ID), v.Text)
		p.CategoryOf[v.ID] = v.Category
		p.Labels[v.ID] = v.Text
	}

	// Per-category centroids of the ORIGINAL vectors (eq. 5). The
	// unscaled sums are kept so GrowProblem can maintain centroids
	// incrementally as categories gain members.
	p.catSums = vec.NewMatrix(len(ex.Categories), dim)
	p.catCounts = make([]int, len(ex.Categories))
	for _, c := range ex.Categories {
		if len(c.Members) == 0 {
			continue
		}
		sum := p.catSums.Row(c.ID)
		for _, m := range c.Members {
			vec.Axpy(sum, 1, p.W0.Row(m))
		}
		p.catCounts[c.ID] = len(c.Members)
		centroid := make([]float64, dim)
		copy(centroid, sum)
		vec.Scale(centroid, 1/float64(len(c.Members)))
		for _, m := range c.Members {
			copy(p.Centroids.Row(m), centroid)
		}
	}

	// Directed groups: forward + inverse per extracted relation.
	p.Groups = make([]Group, 0, 2*len(ex.Relations))
	for _, r := range ex.Relations {
		fwd := buildGroup(r.Name, n, edgesOf(r.Edges, false))
		inv := buildGroup(r.Name+"~inv", n, edgesOf(r.Edges, true))
		fi := len(p.Groups)
		fwd.Inverse = fi + 1
		inv.Inverse = fi
		p.Groups = append(p.Groups, fwd, inv)
	}

	p.NumRelTypes = make([]int, n)
	for gi := range p.Groups {
		g := &p.Groups[gi]
		for i := 0; i < n; i++ {
			if g.OutDeg(i) > 0 {
				p.NumRelTypes[i]++
			}
		}
	}
	computeMaxRel(p)
	return p
}

// computeMaxRel fills each group's cached mr(r) (eq. 13) from scratch.
// GrowProblem maintains the caches incrementally afterwards.
func computeMaxRel(p *Problem) {
	for gi := range p.Groups {
		g := &p.Groups[gi]
		mr := 0
		for i := 0; i < p.N; i++ {
			if g.SourceSet[i] || g.TargetSet[i] {
				if rt := p.NumRelTypes[i] + 1; rt > mr {
					mr = rt
				}
			}
		}
		g.MaxRel = mr
	}
}

func edgesOf(src []extract.Edge, invert bool) []Edge {
	out := make([]Edge, len(src))
	for i, e := range src {
		if invert {
			out[i] = Edge{From: e.To, To: e.From}
		} else {
			out[i] = Edge{From: e.From, To: e.To}
		}
	}
	return out
}

// buildGroup compiles a directed edge list into CSR adjacency plus
// source/target bookkeeping. Edges must reference nodes < n.
func buildGroup(name string, n int, edges []Edge) Group {
	g := Group{
		Name:      name,
		RowPtr:    make([]int, n+1),
		Targets:   make([]int32, len(edges)),
		SourceSet: make([]bool, n),
		TargetSet: make([]bool, n),
	}
	counts := make([]int, n)
	for _, e := range edges {
		counts[e.From]++
	}
	for i := 0; i < n; i++ {
		g.RowPtr[i+1] = g.RowPtr[i] + counts[i]
	}
	next := make([]int, n)
	copy(next, g.RowPtr[:n])
	for _, e := range edges {
		g.Targets[next[e.From]] = int32(e.To)
		next[e.From]++
		if !g.SourceSet[e.From] {
			g.SourceSet[e.From] = true
			g.SourceCount++
		}
		if !g.TargetSet[e.To] {
			g.TargetSet[e.To] = true
			g.TargetCount++
		}
	}
	return g
}

// Validate sanity-checks the problem's internal consistency.
func (p *Problem) Validate() error {
	if p.N != p.W0.Rows || p.N != p.Centroids.Rows {
		return fmt.Errorf("core: matrix rows disagree with N=%d", p.N)
	}
	if len(p.CategoryOf) != p.N || len(p.NumRelTypes) != p.N {
		return fmt.Errorf("core: per-node slices disagree with N=%d", p.N)
	}
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if g.Inverse < 0 || g.Inverse >= len(p.Groups) || p.Groups[g.Inverse].Inverse != gi {
			return fmt.Errorf("core: group %d inverse link broken", gi)
		}
		if len(g.RowPtr) > p.N+1 {
			return fmt.Errorf("core: group %d RowPtr length %d exceeds N+1", gi, len(g.RowPtr))
		}
		if len(g.SourceSet) != p.N || len(g.TargetSet) != p.N {
			return fmt.Errorf("core: group %d membership sets disagree with N=%d", gi, p.N)
		}
		if g.NumEdges() != p.Groups[g.Inverse].NumEdges() {
			return fmt.Errorf("core: group %d edge count mismatch with inverse", gi)
		}
	}
	return nil
}
