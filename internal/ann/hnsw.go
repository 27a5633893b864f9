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
// Updates keep slots stable. Insert of an id the index already holds moves
// that node: it keeps its slot and level, takes the new vector (and code)
// and is re-linked by the same routine that links a first insert — search
// on the serving kernel, select on exact distances (see link). There is
// no threshold below which a move is too small to re-link: every move
// pays the full search and selection, so a graph that has been updated
// all over serves the recall of one the same routine builds from scratch
// (the package's property tests hold it to that). Tombstones arise only
// from Delete — an explicit removal, or a row that became the zero
// vector, which cosine cannot place — and the store rebuilds the index
// once they outnumber the live nodes.
package ann

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"
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
	scratch   sync.Pool // *searchScratch, shared by concurrent queries
	batchPool sync.Pool // *batchScratch, shared by concurrent TopKMany calls

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

// searchScratch is everything one traversal needs beyond the graph
// itself: the visited marks, the normalised-query buffer and the two
// candidate heaps. Pooling the whole bundle makes a steady-state query
// allocation-free — the serving read path runs thousands of these per
// second and a per-call make() for each piece was pure GC pressure.
type searchScratch struct {
	visited visitedSet
	q       []float64
	q32     []float32   // narrowed query, prepared only on an f32 index
	cands   []candidate // min-heap storage, reused across calls
	results []candidate // max-heap storage, reused across calls

	// hops counts candidate expansions (beam pops and greedy steps)
	// across the traversal; TopKAppendStats resets and reads it. The
	// counter lives in the scratch so the hot loops pay one integer add
	// per expansion — no pointer chase, no atomic — and the telemetry
	// layer reads it out only when a caller asked for stats.
	hops int

	// Quantized-query state, prepared per traversal by prepareQueryCodes:
	// the SQ8-encoded query, its scale and whether the code-domain kernel
	// is active for this traversal.
	qcode  []int8
	qscale float64
	useQ   bool
}

func (ix *Index) acquireScratch() *searchScratch {
	sc, _ := ix.scratch.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{}
	}
	if len(sc.visited.marks) < len(ix.nodes) {
		sc.visited.marks = make([]bool, 2*len(ix.nodes))
	}
	return sc
}

func (ix *Index) releaseScratch(sc *searchScratch) {
	sc.visited.reset()
	ix.scratch.Put(sc)
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

// prepareQueryCodes prepares the scratch's unit query (sc.q) for
// traversal: on an f32 index it is narrowed once into sc.q32 for the
// float32 exact kernel, and on a quantized index it is SQ8-encoded for
// the code-domain traversal. On an unquantized index — or for a
// degenerate query the codebook cannot represent — the exact kernel
// stays active.
func (ix *Index) prepareQueryCodes(sc *searchScratch) {
	if ix.f32 {
		if cap(sc.q32) < ix.dim {
			sc.q32 = make([]float32, ix.dim)
		}
		sc.q32 = vec.Narrow(sc.q32[:ix.dim], sc.q)
	}
	sc.useQ = false
	if ix.quant == nil {
		return
	}
	if cap(sc.qcode) < ix.dim {
		sc.qcode = make([]int8, ix.dim)
	}
	sc.qcode = sc.qcode[:ix.dim]
	sc.qscale = ix.quant.EncodeQuery(sc.qcode, sc.q)
	sc.useQ = sc.qscale > 0
}

// distQ and distX score slot against the scratch's prepared query. The
// quantized kernel reads the node's 1-byte-per-dimension code — 8x less
// memory traffic per hop than the float64 vector — and reconstructs an
// approximate cosine from the int32 dot (see package quant); the exact
// kernel is the full-width dot product. They are two functions instead
// of one branching helper so each stays inside the inlining budget: the
// traversal loops hoist the mode branch and inline the kernel, instead
// of paying a call per hop.
func (ix *Index) distQ(sc *searchScratch, slot int32) float64 {
	return 1 - float64(quant.Dot8(sc.qcode, ix.code(slot)))*sc.qscale*ix.qcorr[slot]
}

// code returns slot's window of the flat code array (quantized index
// only).
func (ix *Index) code(slot int32) []int8 {
	n := int(slot)
	return ix.qflat[n*ix.dim : (n+1)*ix.dim]
}

func (ix *Index) distX(sc *searchScratch, slot int32) float64 {
	return 1 - vec.Dot(sc.q, ix.nodes[slot].vec)
}

// distX32 is the exact kernel of an f32 index: the float32 rows halve
// the bytes per hop and vec.Dot32 accumulates in float64. Like distQ it
// is a separate function so the f64 loop bodies keep inlining distX.
func (ix *Index) distX32(sc *searchScratch, slot int32) float64 {
	return 1 - vec.Dot32(sc.q32, ix.nodes[slot].vec32)
}

func (ix *Index) dist(sc *searchScratch, slot int32) float64 {
	if sc.useQ {
		return ix.distQ(sc, slot)
	}
	if ix.f32 {
		return ix.distX32(sc, slot)
	}
	return ix.distX(sc, slot)
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
// same level, no draw from the level generator, no tombstone. Either way
// the node is then connected by link. Zero vectors are rejected: cosine
// similarity is undefined for them, and the exact search path skips them
// too.
func (ix *Index) Insert(id int, v []float64) error {
	if len(v) != ix.dim {
		return fmt.Errorf("ann: vector for id %d has dim %d, index has %d", id, len(v), ix.dim)
	}
	n := vec.Norm(v)
	if n == 0 {
		return fmt.Errorf("ann: zero vector for id %d", id)
	}
	unit := make([]float64, ix.dim)
	for i, x := range v {
		unit[i] = x / n
	}

	slot, held := ix.slots[id]
	moved := 0.0
	if held {
		moved = ix.setVector(slot, unit)
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

	sc := ix.acquireScratch()
	defer ix.releaseScratch(sc)
	if cap(sc.q) < ix.dim {
		sc.q = make([]float64, ix.dim)
	}
	sc.q = sc.q[:ix.dim]
	copy(sc.q, unit)
	ix.prepareQueryCodes(sc)
	ix.link(sc, slot, moved)
	return nil
}

// setVector installs unit as slot's vector and returns how far the node
// moved, as 1 - cosine against the vector it replaces (0 for a new node).
// The node gets a fresh slice — the old one may be shared with a Clone
// that readers are still traversing — while its code is re-encoded in
// place, in the slot's own window of the code array, which no other index
// shares (see Index.qflat). On an f32 index the float64 unit vector is
// narrowed once, here; traversal, quantization and persistence all read
// the rounded copy, so every downstream consumer sees one consistent
// value.
func (ix *Index) setVector(slot int32, unit []float64) (moved float64) {
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
		ix.qcorr[slot] = ix.encode(ix.code(slot), nd)
	}
	return moved
}

// link connects slot, whose vector is in place and prepared as the
// scratch's query, to its neighbourhood. It is the one routine behind
// every link in the graph — first insert and move alike:
//
//   - search on the serving kernel: the greedy descent and the
//     EfConstruction beam run on whatever queries run on (SQ8 codes on a
//     quantized index), so construction explores the graph the way the
//     queries it serves will;
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
func (ix *Index) link(sc *searchScratch, slot int32, moved float64) {
	level := len(ix.nodes[slot].neighbors) - 1
	ep := ix.entry
	// Greedy descent through the layers above the node's level.
	for l := ix.maxLevel; l > level; l-- {
		ep = ix.greedyClosest(sc, ep, l)
	}
	// Link on each shared layer, widest candidate list first.
	for l := min(level, ix.maxLevel); l >= 0; l-- {
		sc.visited.reset()
		cands := ix.linkCandidates(sc, slot, ep, l)
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
// distances, ascending. The slice aliases sc like searchLayer's.
func (ix *Index) linkCandidates(sc *searchScratch, slot, ep int32, l int) []candidate {
	cands := ix.beam(sc, ep, ix.params.EfConstruction, l)
	if i := slices.IndexFunc(cands, func(c candidate) bool { return c.slot == slot }); i >= 0 {
		cands = slices.Delete(cands, i, i+1)
	}
	if sc.useQ {
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

// greedyClosest walks layer l from ep to the locally closest node to the
// scratch's prepared query.
func (ix *Index) greedyClosest(sc *searchScratch, ep int32, l int) int32 {
	steps := 0
	if sc.useQ {
		qcode, qscale := sc.qcode, sc.qscale
		flat, corr, dim := ix.qflat, ix.qcorr, ix.dim
		best, bestD := ep, ix.distQ(sc, ep)
		for improved := true; improved; {
			improved = false
			steps++
			for _, nb := range ix.nodes[best].neighbors[l] {
				n := int(nb)
				if d := 1 - float64(quant.Dot8(qcode, flat[n*dim:(n+1)*dim]))*qscale*corr[n]; d < bestD {
					best, bestD = nb, d
					improved = true
				}
			}
		}
		sc.hops += steps
		return best
	}
	if ix.f32 {
		best, bestD := ep, ix.distX32(sc, ep)
		for improved := true; improved; {
			improved = false
			steps++
			for _, nb := range ix.nodes[best].neighbors[l] {
				if d := ix.distX32(sc, nb); d < bestD {
					best, bestD = nb, d
					improved = true
				}
			}
		}
		sc.hops += steps
		return best
	}
	best, bestD := ep, ix.distX(sc, ep)
	for improved := true; improved; {
		improved = false
		steps++
		for _, nb := range ix.nodes[best].neighbors[l] {
			if d := ix.distX(sc, nb); d < bestD {
				best, bestD = nb, d
				improved = true
			}
		}
	}
	sc.hops += steps
	return best
}

// searchLayer is the beam search of the HNSW paper (Algorithm 2): it
// returns up to ef candidates on layer l, sorted by ascending distance
// under the scratch's prepared query (quantized when the index is).
// Tombstoned nodes are traversed and returned; callers filter them. The
// returned slice aliases sc and is valid until the scratch's next use.
func (ix *Index) searchLayer(sc *searchScratch, ep int32, ef, l int) []candidate {
	out := ix.beam(sc, ep, ef, l)
	slices.SortFunc(out, byDist)
	return out
}

// beam is searchLayer before the sort: the same candidates in heap order,
// for the caller that is going to re-score them anyway (linkCandidates).
func (ix *Index) beam(sc *searchScratch, ep int32, ef, l int) []candidate {
	d0 := ix.dist(sc, ep)
	sc.visited.visit(ep)
	cands := candHeap{data: sc.cands[:0], min: true}
	results := candHeap{data: sc.results[:0], min: false}
	cands.push(candidate{ep, d0})
	results.push(candidate{ep, d0})
	// One copy of the scan loop per kernel: the quantized body is
	// written out (loop-invariant query code/scale hoisted, quant.Dot8
	// inlined by the compiler) because a shared per-hop helper was too
	// big to inline and its call frame showed up as ~15% of quantized
	// query time. The exact bodies go through distX/distX32, which do
	// inline; they stay separate loops so neither carries the other's
	// representation branch per hop.
	pops := 0
	if sc.useQ {
		qcode, qscale := sc.qcode, sc.qscale
		flat, corr, dim := ix.qflat, ix.qcorr, ix.dim
		for cands.len() > 0 {
			c := cands.pop()
			pops++
			if results.len() >= ef && c.dist > results.top().dist {
				break
			}
			for _, nb := range ix.nodes[c.slot].neighbors[l] {
				if !sc.visited.visit(nb) {
					continue
				}
				n := int(nb)
				d := 1 - float64(quant.Dot8(qcode, flat[n*dim:(n+1)*dim]))*qscale*corr[n]
				if results.len() < ef || d < results.top().dist {
					cands.push(candidate{nb, d})
					results.push(candidate{nb, d})
					if results.len() > ef {
						results.pop()
					}
				}
			}
		}
	} else if ix.f32 {
		for cands.len() > 0 {
			c := cands.pop()
			pops++
			if results.len() >= ef && c.dist > results.top().dist {
				break
			}
			for _, nb := range ix.nodes[c.slot].neighbors[l] {
				if !sc.visited.visit(nb) {
					continue
				}
				d := ix.distX32(sc, nb)
				if results.len() < ef || d < results.top().dist {
					cands.push(candidate{nb, d})
					results.push(candidate{nb, d})
					if results.len() > ef {
						results.pop()
					}
				}
			}
		}
	} else {
		for cands.len() > 0 {
			c := cands.pop()
			pops++
			if results.len() >= ef && c.dist > results.top().dist {
				break
			}
			for _, nb := range ix.nodes[c.slot].neighbors[l] {
				if !sc.visited.visit(nb) {
					continue
				}
				d := ix.distX(sc, nb)
				if results.len() < ef || d < results.top().dist {
					cands.push(candidate{nb, d})
					results.push(candidate{nb, d})
					if results.len() > ef {
						results.pop()
					}
				}
			}
		}
	}
	sc.hops += pops
	// Hand the (possibly grown) buffers back so the next traversal
	// reuses their capacity.
	sc.cands = cands.data
	sc.results = results.data
	return results.data
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
// walk/re-rank timing split. A nil st skips every clock read, so the
// stat-less path costs exactly what it did before this hook existed.
func (ix *Index) TopKAppendStats(query []float64, k int, skip func(id int) bool, dst []Result, st *SearchStats) []Result {
	if len(query) != ix.dim {
		panic("ann: TopK query dimension mismatch")
	}
	if st != nil {
		*st = SearchStats{}
	}
	dst = dst[:0]
	if k <= 0 || ix.entry < 0 {
		return dst
	}
	if k > len(ix.slots) {
		k = len(ix.slots) // bounds the result growth and the beam
	}
	qn := vec.Norm(query)
	if qn == 0 {
		return dst
	}
	sc := ix.acquireScratch()
	sc.hops = 0
	if cap(sc.q) < ix.dim {
		sc.q = make([]float64, ix.dim)
	}
	sc.q = sc.q[:ix.dim]
	q := sc.q
	for i, x := range query {
		q[i] = x / qn
	}
	ix.prepareQueryCodes(sc)

	// The quantized path over-fetches fetch = k*rerank candidates from
	// the code-domain beam; each survivor is re-scored exactly in float64
	// below, and only then is the result cut back to k. Re-ranking is
	// what keeps recall@10 at the exact path's level while the per-hop
	// traversal cost drops to 1/8 of the float64 bytes.
	fetch := k
	ef := ix.params.EfSearch
	if sc.useQ {
		r := ix.rerank
		if r < 1 {
			r = DefaultRerank
		}
		fetch = k * r
		if fetch > len(ix.slots) {
			fetch = len(ix.slots)
		}
		// The exact re-rank restores true ordering among everything the
		// beam surfaces, so the quantized stage only has to CONTAIN the
		// true top k in its fetch window — it does not have to order it.
		// That is a strictly easier job than the exact beam's, so ef
		// contributes at half weight (floored at the fetch depth, and
		// still raised by SetEfSearch like the exact path): fewer hops,
		// same recall, which is where the quantized path's latency win
		// comes from on top of the 8x-smaller per-hop reads.
		ef /= 2
	}
	if ef < fetch {
		ef = fetch
	}
	// Widen the beam when tombstones or a filter will eat results. Scale
	// with the tombstone/live ratio (not just the fetch depth) so locally
	// concentrated tombstones cannot crowd every live result out of the
	// beam; the store-level rebuild trigger keeps deleted <= live,
	// bounding this at one doubling.
	if ix.deleted > 0 {
		extra := min(ix.deleted, 2*fetch)
		if live := len(ix.slots); live > 0 {
			if prop := ef * ix.deleted / live; prop > extra {
				extra = prop
			}
		}
		ef += extra
	}
	if skip != nil {
		ef += fetch
	}
	var walkStart time.Time
	if st != nil {
		walkStart = time.Now()
	}
	ep := ix.entry
	for l := ix.maxLevel; l > 0; l-- {
		ep = ix.greedyClosest(sc, ep, l)
	}
	cands := ix.searchLayer(sc, ep, ef, 0)
	var rerankStart time.Time
	if st != nil {
		st.WalkNs = time.Since(walkStart).Nanoseconds()
		st.Hops = sc.hops
		st.Nodes = len(sc.visited.touched)
		st.Quantized = sc.useQ
		rerankStart = time.Now()
	}
	reranked := 0
	for _, c := range cands {
		nd := &ix.nodes[c.slot]
		if nd.deleted || (skip != nil && skip(nd.id)) {
			continue
		}
		score := 1 - c.dist
		if sc.useQ {
			// Exact re-scoring: one full-width dot per surviving candidate
			// (fetch of them), instead of one per traversal hop.
			if ix.f32 {
				score = vec.Dot32(sc.q32, nd.vec32)
			} else {
				score = vec.Dot(q, nd.vec)
			}
			reranked++
		}
		dst = append(dst, Result{ID: nd.id, Score: score})
		if len(dst) == fetch {
			break
		}
	}
	ix.releaseScratch(sc)
	slices.SortFunc(dst, func(a, b Result) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if len(dst) > k {
		dst = dst[:k]
	}
	if st != nil {
		st.RerankNs = time.Since(rerankStart).Nanoseconds()
		st.Reranked = reranked
	}
	return dst
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
