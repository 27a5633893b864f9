// Package ann implements approximate nearest-neighbour search for the
// serving path. The index is an HNSW graph (Malkov & Yashunin, "Efficient
// and robust approximate nearest neighbor search using Hierarchical
// Navigable Small World graphs") over cosine similarity, matching the
// exact semantics of embed.Store.TopK: results are scored by cosine and
// ordered by descending score with ties broken by ascending id.
//
// Vectors are copied and unit-normalised at insert time so a query is a
// plain dot product. Queries (TopK) are safe to run concurrently with each
// other; Insert and Delete require external synchronisation against both
// queries and other writes.
//
// There is one implementation of the graph walk, the per-query state
// machine in batch.go, and everything else is a client of it: TopKMany
// runs queries through it in blocks, a single TopK is a block of one, and
// Insert's construction search (link) drives one state layer by layer.
// This file holds the graph itself — nodes, construction, neighbour
// selection, Clone — and the single-query entry points; how deep a query
// fetches and how wide its beam runs is decided in one place, beamSize.
//
// Updates keep slots stable. Insert of an id the index already holds moves
// that node: it keeps its slot and level, takes the new vector (and code)
// and is re-linked by the same routine that links a first insert — search
// on the serving kernel, select on exact distances (see link). On an
// unquantized index every move pays that search and selection. On a
// quantized one the scale of a move is the quantizer's own resolution: a
// move that leaves the node's SQ8 code byte for byte as it was keeps the
// node's links, because every beam — a query's or a construction's —
// scores the node on that code and so finds it exactly where its links
// say it is; only the exact re-rank sees the new vector. The code is
// re-encoded from the current vector on every move, so small moves cannot
// pile up behind the gate: the first one that crosses a code step
// re-links. Either way a graph that has been updated all over serves the
// recall of one the same routine builds from scratch (the package's
// property tests hold it to that). Tombstones arise only
// from Delete — an explicit removal, or a row that became the zero
// vector, which cosine cannot place — and the store rebuilds the index
// once they outnumber the live nodes.
package ann

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"unsafe"

	"github.com/retrodb/retro/internal/cpu"
	"github.com/retrodb/retro/internal/quant"
	"github.com/retrodb/retro/internal/vec"
)

// Params tunes the HNSW graph. The zero value selects the defaults.
type Params struct {
	// M is the maximum number of links per node on the upper layers;
	// layer 0 allows 2M. Higher M raises recall and memory. Default 16.
	M int
	// EfConstruction is the candidate-list width while building the
	// graph. Higher values build a better graph, slower. Default 200.
	EfConstruction int
	// EfSearch is the candidate-list width during queries (floored at k).
	// Higher values raise recall at the cost of latency. Default 64.
	EfSearch int
	// Seed drives the level generator; a fixed seed makes the graph
	// deterministic for a given insertion order. Default 1.
	Seed int64
}

// DefaultParams returns the default graph configuration.
func DefaultParams() Params {
	return Params{M: 16, EfConstruction: 200, EfSearch: 64, Seed: 1}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.M < 2 {
		// M=1 would make levelMult = 1/ln(1) = +Inf and the graph is
		// degenerate below 2 links anyway.
		p.M = d.M
	}
	if p.EfConstruction <= 0 {
		p.EfConstruction = d.EfConstruction
	}
	if p.EfSearch <= 0 {
		p.EfSearch = d.EfSearch
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// Result is one approximate nearest-neighbour hit.
type Result struct {
	ID    int
	Score float64 // cosine similarity
}

// node is one slot of the graph. The vector slices are immutable once
// installed (a moved node gets a fresh slice, see setVector) and the
// per-layer adjacency slices are never written in place, so a Clone can
// share both with the index it was cloned from.
type node struct {
	id        int
	vec       []float64 // unit-normalised copy (float64 index, nil on f32)
	vec32     []float32 // unit-normalised copy (float32 index, nil on f64)
	neighbors [][]int32 // adjacency per layer, 0..level
	deleted   bool
}

// Index is an HNSW graph over external integer ids.
type Index struct {
	dim int
	// f32 selects the float32 vector representation (see New32): nodes
	// store unit vectors as []float32 and exact distances run on the
	// vec.Dot32 kernel (float64 accumulation over float32 rows — half the
	// memory traffic per hop). The query API is unchanged: queries arrive
	// as []float64 and are narrowed once per traversal.
	f32       bool
	params    Params
	nodes     []node
	slots     map[int]int32 // external id -> slot in nodes
	entry     int32         // slot of the entry point, -1 when empty
	maxLevel  int
	levelMult float64
	rng       *rand.Rand
	deleted   int       // count of tombstoned slots
	batchPool sync.Pool // *batchScratch, shared by concurrent queries

	// Quantized candidate generation (see quant.go): when quant is set,
	// traversal scores hops against 1-byte-per-dimension SQ8 codes and
	// TopKAppend over-fetches rerank*k candidates for exact re-scoring.
	quant  *quant.Codebook
	rerank int

	// Slot-major per-node quantization state, kept in lockstep with nodes
	// whenever quant is set: node i's SQ8 code is qflat[i*dim:(i+1)*dim]
	// and its correction (the reciprocal decoded-code norm, see
	// quant.Encode) is qcorr[i]. These two arrays are the only home of the
	// codes — node headers carry no alias — so every kernel computes a
	// code's address from the slot alone, and an index owns its codes
	// outright: Clone copies both arrays (at exact length, so divergent
	// clones never share spare append capacity), which is what lets a
	// re-link re-encode a moved node's code in place.
	qflat []int8
	qcorr []float64
	// qscratch is where setVector encodes a moved node's new code before
	// comparing it with the old one. Private to this index: Clone leaves
	// it nil, so divergent clones never share it.
	qscratch []int8

	// linked counts the nodes link has connected — first inserts and the
	// moves that re-linked — over the index's life (see Linked).
	linked uint64
}

// visitedSet is reusable per-traversal scratch: a slot-indexed mark array
// plus the list of touched slots so reset costs O(visited), not O(nodes).
type visitedSet struct {
	marks   []bool
	touched []int32
}

// visit marks slot and reports whether it was unvisited.
func (v *visitedSet) visit(slot int32) bool {
	if v.marks[slot] {
		return false
	}
	v.marks[slot] = true
	v.touched = append(v.touched, slot)
	return true
}

func (v *visitedSet) reset() {
	for _, s := range v.touched {
		v.marks[s] = false
	}
	v.touched = v.touched[:0]
}

// New creates an empty index for vectors of the given dimensionality.
func New(dim int, p Params) *Index {
	if dim <= 0 {
		panic(fmt.Sprintf("ann: non-positive dimension %d", dim))
	}
	p = p.withDefaults()
	return &Index{
		dim:       dim,
		params:    p,
		slots:     make(map[int]int32),
		entry:     -1,
		maxLevel:  -1,
		levelMult: 1 / math.Log(float64(p.M)),
		rng:       rand.New(rand.NewSource(p.Seed)),
	}
}

// New32 creates an empty float32 index: node vectors are stored as
// unit-normalised []float32 and exact distances run on the float32
// kernels (float64 accumulation, see vec.Dot32). Everything else —
// graph construction, quantization, the query API — is identical to a
// float64 index; scores agree with the float64 index built from the
// same float32-rounded data to within the kernel tolerance (~1e-6).
func New32(dim int, p Params) *Index {
	ix := New(dim, p)
	ix.f32 = true
	return ix
}

// F32 reports whether node vectors are stored as float32.
func (ix *Index) F32() bool { return ix.f32 }

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of live (non-deleted) vectors.
func (ix *Index) Len() int { return len(ix.slots) }

// Params returns the effective configuration.
func (ix *Index) Params() Params { return ix.params }

// SetEfSearch adjusts the query beam width. It is the one parameter that
// is safe to change after construction — it affects only queries, not
// the built graph — which lets serving processes retune recall/latency
// on an index restored from a snapshot. Non-positive values are ignored.
// Requires the same external synchronisation as Insert.
func (ix *Index) SetEfSearch(ef int) {
	if ef > 0 {
		ix.params.EfSearch = ef
	}
}

// MaxLevel returns the top layer of the graph (-1 when empty).
func (ix *Index) MaxLevel() int { return ix.maxLevel }

type candidate struct {
	slot int32
	dist float64 // 1 - cosine
}

// code returns slot's window of the flat code array (quantized index
// only).
func (ix *Index) code(slot int32) []int8 {
	n := int(slot)
	return ix.qflat[n*ix.dim : (n+1)*ix.dim]
}

// distNodes is the node-to-node distance used by neighbour selection
// during construction; it dispatches on the index representation.
func (ix *Index) distNodes(a, b int32) float64 {
	if ix.f32 {
		return 1 - vec.Dot32(ix.nodes[a].vec32, ix.nodes[b].vec32)
	}
	return 1 - vec.Dot(ix.nodes[a].vec, ix.nodes[b].vec)
}

// Insert adds a vector under the given id, or — when the index already
// holds the id — moves that node to the new vector in place: same slot,
// same level, no draw from the level generator, no tombstone. A new node
// is then connected by link, and so is a moved one, unless the index is
// quantized and the move left the node's SQ8 code unchanged: the node
// keeps its links, since every beam scores it on that code (see the
// package doc). Zero and non-finite vectors are rejected: cosine
// similarity is undefined for them, and a NaN unit vector or code would
// poison every beam and selection that scored it.
func (ix *Index) Insert(id int, v []float64) error {
	unit, n, err := ix.unitOf(id, v)
	if err != nil {
		return err
	}

	slot, held := ix.slots[id]
	moved := 0.0
	if held {
		var recoded bool
		moved, recoded = ix.setVector(slot, unit)
		if ix.quant != nil && !recoded {
			return nil
		}
	} else {
		level := int(math.Floor(-math.Log(1-ix.rng.Float64()) * ix.levelMult))
		slot = int32(len(ix.nodes))
		ix.nodes = append(ix.nodes, node{id: id, neighbors: make([][]int32, level+1)})
		if ix.quant != nil {
			ix.qflat = append(ix.qflat, make([]int8, ix.dim)...)
			ix.qcorr = append(ix.qcorr, 0)
		}
		ix.setVector(slot, unit)
		ix.slots[id] = slot
		if ix.entry < 0 {
			ix.entry = slot
			ix.maxLevel = level
			return nil
		}
	}

	bs := ix.acquireBatchScratch()
	ix.prepareQuery(&bs.states[0], v, n)
	ix.link(bs, slot, moved)
	ix.releaseBatchScratch(bs)
	return nil
}

// unitOf returns v scaled to unit length and its norm. It rejects a
// vector of the wrong dimension, the zero vector and a vector whose norm
// is not finite (a NaN or infinite component, or one too large to
// square).
func (ix *Index) unitOf(id int, v []float64) (unit []float64, n float64, err error) {
	if len(v) != ix.dim {
		return nil, 0, fmt.Errorf("ann: vector for id %d has dim %d, index has %d", id, len(v), ix.dim)
	}
	n = vec.Norm(v)
	if n == 0 {
		return nil, 0, fmt.Errorf("ann: zero vector for id %d", id)
	}
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return nil, 0, fmt.Errorf("ann: non-finite vector for id %d", id)
	}
	unit = make([]float64, ix.dim)
	for i, x := range v {
		unit[i] = x / n
	}
	return unit, n, nil
}

// setVector installs unit as slot's vector and returns how far the node
// moved, as 1 - cosine against the vector it replaces (0 for a new node),
// and whether it rewrote any byte of the slot's SQ8 code (false on an
// unquantized index). The node gets a fresh slice — the old one may be
// shared with a Clone that readers are still traversing — while its code
// is re-encoded in place, in the slot's own window of the code array,
// which no other index shares (see Index.qflat). On an f32 index the
// float64 unit vector is narrowed once, here; traversal, quantization and
// persistence all read the rounded copy, so every downstream consumer
// sees one consistent value.
func (ix *Index) setVector(slot int32, unit []float64) (moved float64, recoded bool) {
	nd := &ix.nodes[slot]
	if ix.f32 {
		fresh := vec.Narrow(make([]float32, ix.dim), unit)
		if nd.vec32 != nil {
			moved = 1 - vec.Dot32(nd.vec32, fresh)
		}
		nd.vec32 = fresh
	} else {
		if nd.vec != nil {
			moved = 1 - vec.Dot(nd.vec, unit)
		}
		nd.vec = unit
	}
	if ix.quant != nil {
		// The correction is a function of the code alone, so an unchanged
		// code leaves it unchanged too.
		if ix.qscratch == nil {
			ix.qscratch = make([]int8, ix.dim)
		}
		corr := ix.encode(ix.qscratch, nd)
		if code := ix.code(slot); !slices.Equal(code, ix.qscratch) {
			copy(code, ix.qscratch)
			ix.qcorr[slot] = corr
			recoded = true
		}
	}
	return moved, recoded
}

// link connects slot, whose vector is in place and prepared as the query
// of the scratch's first state, to its neighbourhood. It is the one
// routine behind every link in the graph — first insert and move alike:
//
//   - search on the serving kernel: the greedy descent and the
//     EfConstruction beam run on the engine queries run on, under the
//     kernel they run on (SQ8 codes on a quantized index), so construction
//     explores the graph the way the queries it serves will;
//   - select on exact distances: the beam's candidates are re-scored
//     exactly before selectNeighbors sees them, because the diversity
//     test compares a candidate's distance to the node with exact
//     node-to-node distances, and the next layer is seeded from the
//     nearest candidate.
//
// Node and selected neighbours are then linked both ways, each list
// shrinking by the usual heuristic when a link overflows it.
//
// A moved node is still in the graph while it is re-linked. The beam may
// walk through it (its previous links are as good a shortcut as any) but
// it is never its own candidate, and links other nodes hold to it simply
// stay. What becomes of its own links depends on how far it went, judged
// per layer against the graph's own scale there — the distance to its new
// nearest neighbour — so there is nothing to tune. Within that distance
// the node is still where its links say it is: it keeps them and the new
// selection is added to them, which is also what keeps the degree a node
// has accumulated from back-links (resetting every moved node to its M
// selections thins a graph that is updated all over, and costs recall).
// Beyond it the links describe a place the node has left: it starts over
// from the selection, as a new node would, and the neighbours it left
// behind are repaired (see relinkAbandoned).
func (ix *Index) link(bs *batchScratch, slot int32, moved float64) {
	ix.linked++
	s := &bs.states[0]
	level := len(ix.nodes[slot].neighbors) - 1
	// Greedy descent through the layers above the node's level: a descent
	// group of one.
	for l := ix.maxLevel; l > level; l-- {
		ix.descendLayer(bs, 1, l)
	}
	ep := s.cur
	s.ef = ix.params.EfConstruction
	// Link on each shared layer, widest candidate list first.
	for l := min(level, ix.maxLevel); l >= 0; l-- {
		cands := ix.linkCandidates(s, slot, ep, l)
		if len(cands) == 0 {
			continue // alone on this layer
		}
		maxConn := ix.params.M
		if l == 0 {
			maxConn = 2 * ix.params.M
		}
		chosen := ix.selectNeighbors(cands, ix.params.M)
		prev := ix.nodes[slot].neighbors[l]
		left := moved > cands[0].dist
		if left || len(prev) == 0 {
			ix.nodes[slot].neighbors[l] = chosen
		}
		for _, nb := range chosen {
			ix.addLink(slot, nb, l, maxConn)
			ix.addLink(nb, slot, l, maxConn)
		}
		if left {
			ix.relinkAbandoned(slot, prev, chosen, l, maxConn)
		}
		ep = cands[0].slot
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = slot
	}
}

// linkCandidates runs the construction beam for slot on layer l from ep
// and returns its candidates — slot itself excluded — under exact
// distances, ascending. The slice aliases s and is valid until its next
// beam.
func (ix *Index) linkCandidates(s *batchQueryState, slot, ep int32, l int) []candidate {
	s.visited.reset()
	s.seedBeam(ep, ix.stateDist(s, ep))
	for s.searching {
		ix.beamTurn(s, l)
	}
	cands := s.results.data
	if i := slices.IndexFunc(cands, func(c candidate) bool { return c.slot == slot }); i >= 0 {
		cands = slices.Delete(cands, i, i+1)
	}
	if s.useQ {
		// The beam read codes; the rows it now needs are cold. Start on the
		// row a few candidates ahead while scoring this one.
		for i := range cands {
			if i+rescoreAhead < len(cands) {
				ix.prefetchRow(cands[i+rescoreAhead].slot)
			}
			cands[i].dist = ix.distNodes(slot, cands[i].slot)
		}
	}
	slices.SortFunc(cands, byDist)
	return cands
}

const rescoreAhead = 4

// prefetchRow hints slot's exact vector into cache.
func (ix *Index) prefetchRow(slot int32) {
	nd := &ix.nodes[slot]
	if ix.f32 {
		cpu.PrefetchRange(unsafe.Pointer(&nd.vec32[0]), 4*ix.dim)
	} else {
		cpu.PrefetchRange(unsafe.Pointer(&nd.vec[0]), 8*ix.dim)
	}
}

// byDist orders candidates by ascending distance.
func byDist(a, b candidate) int {
	if a.dist < b.dist {
		return -1
	}
	if a.dist > b.dist {
		return 1
	}
	return 0
}

// addLink gives node a a link to b on layer l unless it has one already,
// shrinking a's list back to maxConn if the link overflows it.
// Copy-append, never grow in place: the adjacency slice may be
// structurally shared with a Clone serving concurrent queries.
func (ix *Index) addLink(a, b int32, l, maxConn int) {
	nbs := ix.nodes[a].neighbors[l]
	if slices.Contains(nbs, b) {
		return
	}
	grown := make([]int32, len(nbs)+1)
	copy(grown, nbs)
	grown[len(nbs)] = b
	if len(grown) > maxConn {
		grown = ix.shrink(a, grown, maxConn)
	}
	ix.nodes[a].neighbors[l] = grown
}

// relinkAbandoned repairs the neighbourhood a far-moved node left. Each
// previous neighbour the node no longer links to, but which still links
// to the node, now holds a link to somewhere far away in place of one
// into its own surroundings. It re-selects its links from its own list
// plus the rest of the node's previous neighbourhood — its likeliest
// replacements, as in hnswlib's updatePoint. Links to the moved node
// from anywhere else are not known here and are left to the shrinks of
// later inserts.
func (ix *Index) relinkAbandoned(slot int32, prev, chosen []int32, l, maxConn int) {
	for _, o := range prev {
		if slices.Contains(chosen, o) || !slices.Contains(ix.nodes[o].neighbors[l], slot) {
			continue
		}
		pool := slices.Clone(ix.nodes[o].neighbors[l])
		for _, p := range prev {
			if p != o && !slices.Contains(pool, p) {
				pool = append(pool, p)
			}
		}
		ix.nodes[o].neighbors[l] = ix.selectNeighbors(ix.candidatesFrom(o, pool), maxConn)
	}
}

// candidatesFrom scores slots against base exactly, ascending.
func (ix *Index) candidatesFrom(base int32, slots []int32) []candidate {
	cands := make([]candidate, len(slots))
	for i, s := range slots {
		cands[i] = candidate{s, ix.distNodes(base, s)}
	}
	slices.SortFunc(cands, byDist)
	return cands
}

// Clone returns an index that answers queries identically and evolves
// independently from the original: inserts, moves and deletes on either
// side are invisible to the other. The copy is structural, not a rebuild.
// Node vectors and per-layer adjacency slices are shared — safe because
// neither side ever writes into one: links are updated by copy-append
// (see addLink) and a moved node gets a fresh vector slice (see
// setVector). What a writer does update in place is copied: the node
// headers, each node's outer adjacency slice, the slot map and the SQ8
// code arrays. So cloning costs O(nodes) header copies plus one flat copy
// of the codes. The level RNG is replayed one draw per slot, exactly as
// Read does, so post-clone inserts assign the same levels on both sides.
//
// Clone is how the serving layer gets a mutable successor of an index
// frozen into a published read view: the writer clones, mutates the
// clone, and publishes it, while readers keep traversing the original.
func (ix *Index) Clone() *Index {
	cp := &Index{
		dim:       ix.dim,
		f32:       ix.f32,
		params:    ix.params,
		nodes:     make([]node, len(ix.nodes)),
		slots:     maps.Clone(ix.slots),
		entry:     ix.entry,
		maxLevel:  ix.maxLevel,
		levelMult: ix.levelMult,
		rng:       rand.New(rand.NewSource(ix.params.Seed)),
		deleted:   ix.deleted,
		linked:    ix.linked,
		quant:     ix.quant, // immutable once trained
		rerank:    ix.rerank,
		qflat:     slices.Clone(ix.qflat),
		qcorr:     slices.Clone(ix.qcorr),
	}
	copy(cp.nodes, ix.nodes)
	for i := range cp.nodes {
		// Private outer slice per node: the writer reassigns
		// neighbors[l] on link updates, and that write must not be
		// visible through the original's nodes array.
		cp.nodes[i].neighbors = slices.Clone(cp.nodes[i].neighbors)
	}
	for i := 0; i < len(ix.nodes); i++ {
		cp.rng.Float64()
	}
	return cp
}

// Relabel renames every node's external id through newID — live nodes
// and tombstones alike — keeping slots, links, vectors and codes. It is
// how an index follows its store when the store renumbers its rows. It
// fails, leaving the index untouched, when newID has no id for a node or
// maps two live nodes to one id. Requires the same external
// synchronisation as Insert.
func (ix *Index) Relabel(newID func(old int) (int, bool)) error {
	ids := make([]int, len(ix.nodes))
	slots := make(map[int]int32, len(ix.slots))
	for i := range ix.nodes {
		nd := &ix.nodes[i]
		id, ok := newID(nd.id)
		if !ok {
			return fmt.Errorf("ann: relabel: no new id for id %d", nd.id)
		}
		ids[i] = id
		if nd.deleted {
			continue
		}
		if _, dup := slots[id]; dup {
			return fmt.Errorf("ann: relabel: two live nodes map to id %d", id)
		}
		slots[id] = int32(i)
	}
	for i := range ix.nodes {
		ix.nodes[i].id = ids[i]
	}
	ix.slots = slots
	return nil
}

// Delete tombstones an id: it stays in the graph for traversal but is
// never returned from TopK. Returns false if the id is not present.
func (ix *Index) Delete(id int) bool {
	slot, ok := ix.slots[id]
	if !ok {
		return false
	}
	ix.nodes[slot].deleted = true
	delete(ix.slots, id)
	ix.deleted++
	return true
}

// Linked returns how many times Insert has linked a node over the index's
// life: every new node but the first (which has nothing to link to) and
// every move that changed the node's code, or every move at all on an
// unquantized index. Clone copies the count, so a writer that had to
// clone a frozen index reads one running count across the clone. Requires
// the same external synchronisation as Insert.
func (ix *Index) Linked() uint64 { return ix.linked }

// Deleted returns the number of tombstoned nodes still in the graph.
// Tombstones cost traversal time and widen the query beam; callers
// should rebuild when they outnumber the live entries.
func (ix *Index) Deleted() int { return ix.deleted }

// Contains reports whether id is live in the index.
func (ix *Index) Contains(id int) bool {
	_, ok := ix.slots[id]
	return ok
}

// MemoryStats breaks down the index's resident data payload for the
// serving memory accounting: graph vectors (including tombstones, which
// keep their rows), SQ8 codes with their per-row corrections, and the
// per-layer adjacency lists. Figures are payload bytes — Go slice and
// map headers are excluded — so they compare cleanly across precisions.
type MemoryStats struct {
	VectorBytes    int64 // node rows: 8 bytes/value f64, 4 bytes/value f32
	CodeBytes      int64 // SQ8 codes + float64 corrections (0 when unquantized)
	AdjacencyBytes int64 // int32 neighbour lists across all layers
}

// MemoryStats walks the graph and reports its payload footprint. It
// needs the same external synchronisation as queries (safe concurrently
// with other reads, excluded against Insert/Delete).
func (ix *Index) MemoryStats() MemoryStats {
	var ms MemoryStats
	for i := range ix.nodes {
		nd := &ix.nodes[i]
		ms.VectorBytes += int64(8*len(nd.vec) + 4*len(nd.vec32))
		for _, layer := range nd.neighbors {
			ms.AdjacencyBytes += int64(4 * len(layer))
		}
	}
	ms.CodeBytes = int64(len(ix.qflat)) + int64(8*len(ix.qcorr))
	return ms
}

// selectNeighbors is the heuristic of Algorithm 4: a candidate is kept
// only if it is closer to the query than to every already-kept neighbour,
// which spreads links across clusters; pruned candidates backfill any
// remaining capacity so nodes keep m links for connectivity.
func (ix *Index) selectNeighbors(cands []candidate, m int) []int32 {
	if len(cands) <= m {
		out := make([]int32, len(cands))
		for i, c := range cands {
			out[i] = c.slot
		}
		return out
	}
	chosen := make([]int32, 0, m)
	var pruned []candidate
	for _, c := range cands {
		if len(chosen) >= m {
			break
		}
		keep := true
		for _, s := range chosen {
			if ix.distNodes(c.slot, s) < c.dist {
				keep = false
				break
			}
		}
		if keep {
			chosen = append(chosen, c.slot)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(chosen) >= m {
			break
		}
		chosen = append(chosen, c.slot)
	}
	return chosen
}

// shrink cuts the neighbour list nbs of slot down to maxConn with the
// same diversity heuristic as insertion — selectNeighbors over the list
// sorted by distance — and returns the result as a fresh slice.
//
// A list that overflows by one link, which is every overflow addLink
// produces, does not need the full selection. With backfill, selection
// over m+1 candidates drops exactly one of them: the farthest candidate
// the heuristic prunes, or the farthest of all when it prunes none. So
// walk back from the far end until a pruned candidate turns up, deciding
// each one lazily (see kept); far candidates are the likeliest to be
// pruned, so the walk is usually short. The link set is the one the full
// selection returns; only the order within the list differs.
func (ix *Index) shrink(slot int32, nbs []int32, maxConn int) []int32 {
	cands := ix.candidatesFrom(slot, nbs)
	if len(cands) != maxConn+1 {
		return ix.selectNeighbors(cands, maxConn)
	}
	memo := make([]int8, len(cands))
	drop := maxConn
	for j := maxConn; j > 0; j-- {
		if !ix.kept(cands, memo, j) {
			drop = j
			break
		}
	}
	out := make([]int32, 0, maxConn)
	for j, c := range cands {
		if j != drop {
			out = append(out, c.slot)
		}
	}
	return out
}

// kept reports whether selectNeighbors would keep cands[j] on its first
// pass: no kept candidate before it is closer to it than the base node
// is. memo caches decisions (0 unknown, 1 kept, -1 pruned). Whether an
// earlier candidate was itself kept is only asked once that candidate
// turns out to be close enough to matter, which is what saves the work.
func (ix *Index) kept(cands []candidate, memo []int8, j int) bool {
	if memo[j] != 0 {
		return memo[j] > 0
	}
	memo[j] = 1
	for i := 0; i < j; i++ {
		if memo[i] >= 0 && ix.distNodes(cands[j].slot, cands[i].slot) < cands[j].dist && ix.kept(cands, memo, i) {
			memo[j] = -1
			break
		}
	}
	return memo[j] > 0
}

// TopK returns the approximately k most cosine-similar live entries to
// query, excluding any id for which skip returns true (skip may be nil).
// Results are sorted by descending score, ties by ascending id, matching
// embed.Store.TopK ordering. The returned slice is freshly allocated and
// owned by the caller; hot paths that want to recycle result storage use
// TopKAppend.
func (ix *Index) TopK(query []float64, k int, skip func(id int) bool) []Result {
	return ix.TopKAppend(query, k, skip, nil)
}

// SearchStats reports what one TopK traversal did, for the serving
// telemetry layer: how many candidate expansions the walk performed,
// how many distinct nodes the layer-0 beam evaluated, how many
// candidates the quantized path re-scored exactly, and how the time
// split between the graph walk and the exact re-rank. Populated by
// TopKAppendStats; the stat-less entry points never touch it.
type SearchStats struct {
	Hops      int   // candidate expansions: beam pops + greedy descent steps
	Nodes     int   // distinct nodes scored by the layer-0 beam
	Reranked  int   // candidates re-scored exactly (quantized path only)
	WalkNs    int64 // descent + beam search wall time
	RerankNs  int64 // exact re-scoring + result sort wall time
	Quantized bool  // traversal ran on SQ8 codes
}

// TopKAppend is TopK with caller-owned result storage: hits are written
// into dst[:0] and the slice (grown if its capacity was short) is
// returned. With cap(dst) >= k and a warm scratch pool a query performs
// no allocation — the normalised-query buffer, the visited set and both
// beam heaps come from the index's scratch pool. Queries may run
// concurrently with each other; the usual Insert/Delete exclusion still
// applies.
func (ix *Index) TopKAppend(query []float64, k int, skip func(id int) bool, dst []Result) []Result {
	return ix.TopKAppendStats(query, k, skip, dst, nil)
}

// TopKAppendStats is TopKAppend with traversal telemetry: when st is
// non-nil it is overwritten with this query's stats, including the
// walk/re-rank timing split. A nil st skips every clock read.
//
// A single query is a batch of one: this wraps the arguments in
// one-element arrays — on the stack, so the wrapper adds no allocation —
// and runs TopKManyAppendStats.
func (ix *Index) TopKAppendStats(query []float64, k int, skip func(id int) bool, dst []Result, st *SearchStats) []Result {
	queries, ks, out := [1][]float64{query}, [1]int{k}, [1][]Result{dst}
	var skipMany func(qi, id int) bool
	if skip != nil {
		skipMany = func(_, id int) bool { return skip(id) }
	}
	return ix.TopKManyAppendStats(queries[:], ks[:], skipMany, out[:], st)[0]
}

// candHeap is a binary heap of candidates: min-ordered when min is true
// (closest first), max-ordered otherwise (furthest first, for bounded
// result sets).
type candHeap struct {
	data []candidate
	min  bool
}

func (h *candHeap) len() int       { return len(h.data) }
func (h *candHeap) top() candidate { return h.data[0] }
func (h *candHeap) before(i, j int) bool {
	if h.min {
		return h.data[i].dist < h.data[j].dist
	}
	return h.data[i].dist > h.data[j].dist
}

func (h *candHeap) push(c candidate) {
	h.data = append(h.data, c)
	i := len(h.data) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		h.data[i], h.data[p] = h.data[p], h.data[i]
		i = p
	}
}

func (h *candHeap) pop() candidate {
	top := h.data[0]
	last := len(h.data) - 1
	h.data[0] = h.data[last]
	h.data = h.data[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && h.before(l, best) {
			best = l
		}
		if r < last && h.before(r, best) {
			best = r
		}
		if best == i {
			break
		}
		h.data[i], h.data[best] = h.data[best], h.data[i]
		i = best
	}
	return top
}
