package core

import (
	"fmt"

	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/tokenize"
	"github.com/retrodb/retro/internal/vec"
)

// GroupNode addresses one node within one directed group.
type GroupNode struct {
	Group, Node int
}

// GrowthReport describes what GrowProblem changed, in the terms the
// incremental-repair machinery needs: which nodes are new, which nodes a
// repair should seed from, and which (group, node) target memberships
// appeared (IncrementalState.Grow folds those into the target sums).
type GrowthReport struct {
	// OldN is the node count before the growth.
	OldN int
	// NewNodes are the appended node ids, ascending.
	NewNodes []int
	// Seeds are the repair seeds: every new node plus every pre-existing
	// node that gained an edge, deduplicated in discovery order.
	Seeds []int
	// NewTargets lists nodes that newly joined a group's target set.
	NewTargets []GroupNode
	// NewGroupPairs counts appended forward/inverse group pairs.
	NewGroupPairs int
}

// GrowProblem extends an already-built problem in place from an
// extraction delta: new values extend W0/Centroids/bookkeeping, new
// relation groups are appended, and new edges land in the groups'
// overflow adjacency. Nothing existing is rebuilt, so the cost is
// proportional to the delta (plus O(|groups| · new values) bookkeeping),
// not to the problem — the property that keeps single-row inserts flat
// in database size.
//
// ex must be the same extraction p was built from, already advanced by
// ApplyInserts; d is that call's delta.
func GrowProblem(p *Problem, ex *extract.Extraction, tok *tokenize.Tokenizer, d *extract.Delta) (*GrowthReport, error) {
	oldN := p.N
	oldRels := len(ex.Relations) - len(d.NewRelations)
	if len(ex.Values)-len(d.NewValues) != oldN {
		return nil, fmt.Errorf("core: grow: problem has %d nodes but extraction had %d before the delta",
			oldN, len(ex.Values)-len(d.NewValues))
	}
	if len(p.Groups) != 2*oldRels {
		return nil, fmt.Errorf("core: grow: problem has %d groups but extraction had %d relations before the delta",
			len(p.Groups), oldRels)
	}
	for k, id := range d.NewValues {
		if id != oldN+k {
			return nil, fmt.Errorf("core: grow: non-contiguous new value id %d (want %d)", id, oldN+k)
		}
	}
	if p.catSums == nil || p.catCounts == nil {
		return nil, fmt.Errorf("core: grow: problem has no category sums (built by a constructor that predates growth support)")
	}
	rep := &GrowthReport{OldN: oldN}
	newN := len(ex.Values)

	// New categories (rare: a table or column that appeared after the
	// base extraction).
	if len(ex.Categories) > len(p.catCounts) {
		p.catSums.GrowRows(len(ex.Categories))
		for len(p.catCounts) < len(ex.Categories) {
			p.catCounts = append(p.catCounts, 0)
		}
	}

	// New values: initial vectors, labels, category bookkeeping.
	if newN > oldN {
		p.W0.GrowRows(newN)
		p.Centroids.GrowRows(newN)
		for _, id := range d.NewValues {
			v := ex.Values[id]
			tok.InitialVector(p.W0.Row(id), v.Text)
			p.CategoryOf = append(p.CategoryOf, v.Category)
			p.Labels = append(p.Labels, v.Text)
			p.NumRelTypes = append(p.NumRelTypes, 0)
			vec.Axpy(p.catSums.Row(v.Category), 1, p.W0.Row(id))
			p.catCounts[v.Category]++
			rep.NewNodes = append(rep.NewNodes, id)
		}
		p.N = newN
	}

	// Every group's membership sets must cover the new nodes.
	for gi := range p.Groups {
		g := &p.Groups[gi]
		for len(g.SourceSet) < newN {
			g.SourceSet = append(g.SourceSet, false)
			g.TargetSet = append(g.TargetSet, false)
		}
	}

	// Append forward/inverse pairs for relations born in this delta.
	for _, rid := range d.NewRelations {
		if 2*rid != len(p.Groups) {
			return nil, fmt.Errorf("core: grow: new relation %d does not extend the group list (len %d)", rid, len(p.Groups))
		}
		name := ex.Relations[rid].Name
		fi := len(p.Groups)
		p.Groups = append(p.Groups,
			Group{Name: name, Inverse: fi + 1, SourceSet: make([]bool, newN), TargetSet: make([]bool, newN)},
			Group{Name: name + "~inv", Inverse: fi, SourceSet: make([]bool, newN), TargetSet: make([]bool, newN)},
		)
		rep.NewGroupPairs++
	}

	// Append the delta edges into the overflow adjacency, forward and
	// inverse, maintaining counts and |R_i|.
	seedSeen := make(map[int]bool, 2*len(d.Edges)+len(rep.NewNodes))
	seed := func(i int) {
		if !seedSeen[i] {
			seedSeen[i] = true
			rep.Seeds = append(rep.Seeds, i)
		}
	}
	for _, i := range rep.NewNodes {
		seed(i)
	}
	relChanged := make(map[int]bool)
	touchedGroups := make(map[int]bool)
	for _, de := range d.Edges {
		if de.Relation < 0 || 2*de.Relation+1 >= len(p.Groups) {
			return nil, fmt.Errorf("core: grow: delta edge references relation %d beyond group list", de.Relation)
		}
		e := de.Edge
		if e.From < 0 || e.From >= newN || e.To < 0 || e.To >= newN {
			return nil, fmt.Errorf("core: grow: delta edge (%d,%d) out of range", e.From, e.To)
		}
		p.appendEdge(2*de.Relation, e.From, e.To, rep, relChanged)
		p.appendEdge(2*de.Relation+1, e.To, e.From, rep, relChanged)
		touchedGroups[2*de.Relation] = true
		touchedGroups[2*de.Relation+1] = true
		seed(e.From)
		seed(e.To)
	}

	// mr(r) caches: a changed |R_i| (or a first-time participant) can only
	// raise the max of the groups the node belongs to.
	for i := range relChanged {
		rt := p.NumRelTypes[i] + 1
		for gi := range p.Groups {
			g := &p.Groups[gi]
			if (g.SourceSet[i] || g.TargetSet[i]) && rt > g.MaxRel {
				g.MaxRel = rt
			}
		}
	}

	// Keep appends amortised O(1): once a group's overflow outgrows a
	// fraction of its base CSR, fold it in.
	for gi := range touchedGroups {
		g := &p.Groups[gi]
		if g.extraEdges > len(g.Targets)/4+32 {
			g.compact(newN)
		}
	}

	// Fresh centroid rows for the new values; pre-existing members of the
	// same categories are refreshed by the caller for the repair set only
	// (their rows are unread until they are re-solved).
	p.RefreshCentroids(rep.NewNodes)
	return rep, nil
}

// appendEdge adds one directed edge to group gi's overflow, updating
// membership sets, counts and NumRelTypes. Callers guarantee the edge is
// not already present (extract deduplicates deltas).
func (p *Problem) appendEdge(gi, from, to int, rep *GrowthReport, relChanged map[int]bool) {
	g := &p.Groups[gi]
	if g.OutDeg(from) == 0 {
		p.NumRelTypes[from]++
		relChanged[from] = true
	}
	if g.extra == nil {
		g.extra = make(map[int32][]int32)
	}
	g.extra[int32(from)] = append(g.extra[int32(from)], int32(to))
	g.extraEdges++
	if !g.SourceSet[from] {
		g.SourceSet[from] = true
		g.SourceCount++
		relChanged[from] = true
	}
	if !g.TargetSet[to] {
		g.TargetSet[to] = true
		g.TargetCount++
		relChanged[to] = true
		rep.NewTargets = append(rep.NewTargets, GroupNode{Group: gi, Node: to})
	}
}

// compact folds the overflow adjacency back into a pure CSR base over n
// nodes. Per-source target order (base first, appended after) is
// preserved.
func (g *Group) compact(n int) {
	if g.extraEdges == 0 {
		return
	}
	total := len(g.Targets) + g.extraEdges
	rowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + g.OutDeg(i)
	}
	targets := make([]int32, total)
	for i := 0; i < n; i++ {
		at := rowPtr[i]
		base, extra := g.TargetLists(i)
		at += copy(targets[at:], base)
		copy(targets[at:], extra)
	}
	g.RowPtr = rowPtr
	g.Targets = targets
	g.extra = nil
	g.extraEdges = 0
}
