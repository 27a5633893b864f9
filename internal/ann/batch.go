package ann

import (
	"cmp"
	"slices"
	"time"
	"unsafe"

	"github.com/retrodb/retro/internal/cpu"
	"github.com/retrodb/retro/internal/quant"
	"github.com/retrodb/retro/internal/vec"
)

// This file is the search engine: the one implementation of the HNSW walk
// in this package. Everything that traverses the graph runs on the
// per-query state machine below — a TopKMany batch, a single TopK (a
// block of one, see TopKAppendStats) and the construction search behind
// every Insert (link: a descent group of one, then a beamTurn loop on each
// layer the node reaches). A query's result does not depend on what else
// is in its block: per-query state — visited marks, both beam heaps, the
// greedy-descent position — evolves in the same order under the same
// kernels whatever is interleaved with it, which the property tests hold
// bit for bit against a textbook traversal (reference_test.go). What the
// engine adds to the textbook is scheduling, in three places:
//
//   - Upper-layer descent is coalesced: queries sitting at the same node
//     share one adjacency load, and each neighbor's code is scored
//     against the whole group in one quant.Dot8Many call, so the node
//     operand is streamed from memory once per group instead of once
//     per query.
//
//   - The beam expands in two phases: the turn that pops a candidate
//     gathers its unvisited neighbors and issues prefetches for their
//     codes, and the query's *next* turn scores them. In a block, queries
//     advance round-robin and the other queries' arithmetic fills the
//     DRAM latency the prefetches are hiding. A lone query gains too: the
//     gather puts every neighbor's miss in flight at once before the
//     first is scored, where a loop that loads and scores one neighbor at
//     a time pays the misses one after another.
//
//   - The exact re-rank prefetches the next candidate's row (those rows
//     live in a matrix far larger than cache) while the current one is
//     being scored.
//
// Query preparation (prepareQuery), beam sizing (beamSize) and beam
// seeding (seedBeam) each have one home here, shared by queries and
// construction.

// batchBlock is the number of queries traversed together. Eight is
// enough in-flight work to cover a DRAM miss (~10 dot products per
// stall) while the per-block scratch (visited marks, heaps) stays small
// enough to pool.
const batchBlock = 8

// batchQueryState is everything one traversal needs beyond the graph
// itself: the prepared query, the visited marks, the descent cursor, the
// two beam heaps and the two-phase expansion buffer.
type batchQueryState struct {
	visited visitedSet
	q       []float64 // unit-normalised query
	q32     []float32 // narrowed query (f32 index only)
	qcode   []int8    // SQ8-encoded query (quantized index only)
	qscale  float64
	useQ    bool // traversal scores on codes

	cands   candHeap // beam min-heap
	results candHeap // beam max-heap (bounded at ef)
	pending []int32  // gathered, prefetched, not-yet-scored neighbors

	cur  int32   // descent cursor: current closest slot
	curD float64 // its distance

	improved  bool // descent: this round found a closer neighbor
	active    bool // descent: still iterating rounds on this layer
	searching bool // beam: not yet terminated

	empty bool // degenerate query: produce an empty result
	qi    int  // index into the caller's queries slice
	k     int
	fetch int
	ef    int

	// pops and steps count candidate expansions (beam pops, descent
	// rounds). They live in the state so the hot loops pay one integer add
	// per expansion — no pointer chase, no atomic — and the telemetry layer
	// reads them out only when a caller asked for stats.
	pops     int
	steps    int
	reranked int
}

// batchScratch is everything one block needs, pooled on the index so a
// steady-state query — single or batched — allocates nothing. The serving
// read path runs thousands of these per second and a per-call make() for
// each piece was pure GC pressure.
type batchScratch struct {
	states [batchBlock]batchQueryState
	qcodes [][]int8 // descent group operands for Dot8Many
	dots   [batchBlock]int32
	qmem   [batchBlock]*batchQueryState // quantized descent-group members
	xmem   [batchBlock]*batchQueryState // exact descent-group members
}

func (ix *Index) acquireBatchScratch() *batchScratch {
	bs, _ := ix.batchPool.Get().(*batchScratch)
	if bs == nil {
		bs = &batchScratch{qcodes: make([][]int8, 0, batchBlock)}
	}
	return bs
}

func (ix *Index) releaseBatchScratch(bs *batchScratch) {
	for j := range bs.states {
		bs.states[j].visited.reset()
	}
	ix.batchPool.Put(bs)
}

// TopKMany answers every query with its approximately k most
// cosine-similar live entries, excluding ids for which skip returns
// true (skip may be nil; qi is the query's index). Each query's result
// is identical to what TopK(queries[qi], k, ...) returns; the batch
// form exists because traversing queries together is substantially
// faster per query than a loop of TopK calls. Fresh result slices are
// allocated; hot paths use TopKManyAppend.
func (ix *Index) TopKMany(queries [][]float64, k int, skip func(qi, id int) bool) [][]Result {
	ks := make([]int, len(queries))
	for i := range ks {
		ks[i] = k
	}
	return ix.TopKManyAppend(queries, ks, skip, nil)
}

// TopKManyAppend is TopKMany with per-query k and caller-owned result
// storage: query i's hits are written into dst[i][:0] (dst is grown to
// len(queries) if short) and the slice of slices is returned. With warm
// capacity and a warm scratch pool a steady-state batch performs no
// allocation. Batches may run concurrently with each other and with
// single queries; the usual Insert/Delete exclusion applies.
func (ix *Index) TopKManyAppend(queries [][]float64, ks []int, skip func(qi, id int) bool, dst [][]Result) [][]Result {
	return ix.TopKManyAppendStats(queries, ks, skip, dst, nil)
}

// TopKManyAppendStats is TopKManyAppend with traversal telemetry: when
// st is non-nil it is overwritten with the batch's aggregate stats —
// hops, beam-scored nodes and re-ranked candidates summed over the
// queries, wall time split into one walk and one re-rank figure per
// batch, Quantized set if any query ran on codes. A nil st skips every
// clock read.
//
// This is where every query enters the engine and the one place its
// arguments are checked: a mismatched ks or a query of the wrong
// dimension is a caller bug and panics before dst or the scratch pool
// is touched.
func (ix *Index) TopKManyAppendStats(queries [][]float64, ks []int, skip func(qi, id int) bool, dst [][]Result, st *SearchStats) [][]Result {
	if len(queries) != len(ks) {
		panic("ann: TopKMany ks length mismatch")
	}
	for _, q := range queries {
		if len(q) != ix.dim {
			panic("ann: TopK query dimension mismatch")
		}
	}
	if st != nil {
		*st = SearchStats{}
	}
	if cap(dst) < len(queries) {
		grown := make([][]Result, len(queries))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:len(queries)]
	for i := range dst {
		dst[i] = dst[i][:0]
	}
	if len(queries) == 0 {
		return dst
	}
	bs := ix.acquireBatchScratch()
	for base := 0; base < len(queries); base += batchBlock {
		n := min(batchBlock, len(queries)-base)
		ix.runBatchBlock(bs, queries, ks, skip, dst, base, n, st)
	}
	ix.releaseBatchScratch(bs)
	return dst
}

// prepareQuery readies s to traverse under query/norm — the unit vector
// of a query whose norm the caller has taken and found non-zero — and
// puts its descent cursor on the entry point. On an f32 index the unit
// query is narrowed once for the float32 exact kernel, and on a quantized
// index it is SQ8-encoded for the code-domain kernel; on an unquantized
// index — or for a degenerate query the codebook cannot represent — the
// exact kernel stays active.
func (ix *Index) prepareQuery(s *batchQueryState, query []float64, norm float64) {
	if cap(s.q) < ix.dim {
		s.q = make([]float64, ix.dim)
	}
	s.q = s.q[:ix.dim]
	for i, x := range query {
		s.q[i] = x / norm
	}
	if ix.f32 {
		if cap(s.q32) < ix.dim {
			s.q32 = make([]float32, ix.dim)
		}
		s.q32 = vec.Narrow(s.q32[:ix.dim], s.q)
	}
	s.useQ = false
	if ix.quant != nil {
		if cap(s.qcode) < ix.dim {
			s.qcode = make([]int8, ix.dim)
		}
		s.qcode = s.qcode[:ix.dim]
		s.qscale = ix.quant.EncodeQuery(s.qcode, s.q)
		s.useQ = s.qscale > 0
	}
	if len(s.visited.marks) < len(ix.nodes) {
		s.visited.marks = make([]bool, 2*len(ix.nodes))
	}
	s.cur = ix.entry
	s.curD = ix.stateDist(s, ix.entry)
	s.empty = false
}

// beamSize decides, for a query that wants k results, how many
// candidates it takes from the layer-0 beam (fetch) and how wide that
// beam runs (ef). onCodes says the traversal scores on SQ8 codes,
// filtered that a skip callback will reject some of what it finds.
func (ix *Index) beamSize(k int, onCodes, filtered bool) (fetch, ef int) {
	// The quantized path over-fetches fetch = k*rerank candidates from
	// the code-domain beam; each survivor is re-scored exactly by
	// rerankState, and only then is the result cut back to k. Re-ranking
	// is what keeps recall@10 at the exact path's level while the per-hop
	// traversal cost drops to 1/8 of the float64 bytes.
	fetch = k
	ef = ix.params.EfSearch
	if onCodes {
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
	if filtered {
		ef += fetch
	}
	return fetch, ef
}

// stateDist scores slot under the state's prepared query: on the node's
// 1-byte-per-dimension code when the traversal runs on codes — 8x less
// memory traffic per hop than the float64 vector, an approximate cosine
// reconstructed from the int32 dot (see package quant) — and by the
// full-width dot product otherwise.
func (ix *Index) stateDist(s *batchQueryState, slot int32) float64 {
	if s.useQ {
		return 1 - float64(quant.Dot8(s.qcode, ix.code(slot)))*s.qscale*ix.qcorr[slot]
	}
	return 1 - ix.stateDot(s, slot)
}

// stateDot is the exact cosine of slot to the state's query. An f32
// index halves the bytes per row and vec.Dot32 accumulates in float64.
func (ix *Index) stateDot(s *batchQueryState, slot int32) float64 {
	if ix.f32 {
		return vec.Dot32(s.q32, ix.nodes[slot].vec32)
	}
	return vec.Dot(s.q, ix.nodes[slot].vec)
}

func (ix *Index) runBatchBlock(bs *batchScratch, queries [][]float64, ks []int, skip func(qi, id int) bool, dst [][]Result, base, n int, st *SearchStats) {
	// Per-query setup: clamps, preparation and beam sizing are applied
	// per query, so a block of one is not a special case.
	for j := 0; j < n; j++ {
		s := &bs.states[j]
		qi := base + j
		s.qi = qi
		s.empty = true
		s.searching = false
		s.pops, s.steps, s.reranked = 0, 0, 0
		s.visited.reset()
		k := ks[qi]
		if k <= 0 || ix.entry < 0 {
			continue
		}
		if k > len(ix.slots) {
			k = len(ix.slots) // bounds the result growth and the beam
		}
		qn := vec.Norm(queries[qi])
		if qn == 0 {
			continue
		}
		ix.prepareQuery(s, queries[qi], qn)
		s.k = k
		s.fetch, s.ef = ix.beamSize(k, s.useQ, skip != nil)
	}

	var walkStart time.Time
	if st != nil {
		walkStart = time.Now()
	}

	for l := ix.maxLevel; l > 0; l-- {
		ix.descendLayer(bs, n, l)
	}

	// Interleaved layer-0 beam: seed every query at its descended entry,
	// then advance round-robin until all terminate.
	remaining := 0
	for j := 0; j < n; j++ {
		if s := &bs.states[j]; !s.empty {
			s.seedBeam(s.cur, s.curD)
			remaining++
		}
	}
	for remaining > 0 {
		for j := 0; j < n; j++ {
			s := &bs.states[j]
			if !s.searching {
				continue
			}
			ix.beamTurn(s, 0)
			if !s.searching {
				remaining--
			}
		}
	}

	var rerankStart time.Time
	if st != nil {
		walkNs := time.Since(walkStart).Nanoseconds()
		st.WalkNs += walkNs
		for j := 0; j < n; j++ {
			s := &bs.states[j]
			if s.empty {
				continue
			}
			st.Hops += s.pops + s.steps
			st.Nodes += len(s.visited.touched)
			if s.useQ {
				st.Quantized = true
			}
		}
		rerankStart = time.Now()
	}

	for j := 0; j < n; j++ {
		s := &bs.states[j]
		if s.empty {
			continue
		}
		dst[s.qi] = ix.rerankState(s, skip, dst[s.qi])
	}

	if st != nil {
		st.RerankNs += time.Since(rerankStart).Nanoseconds()
		for j := 0; j < n; j++ {
			st.Reranked += bs.states[j].reranked
		}
	}
}

// descendLayer is the coalesced greedy descent of the block's first n
// states on layer l: each walks from its cursor to the locally closest
// node to its query. Queries whose round found no improvement settle; the
// rest regroup by their new cursor.
func (ix *Index) descendLayer(bs *batchScratch, n, l int) {
	for j := 0; j < n; j++ {
		bs.states[j].active = !bs.states[j].empty
	}
	for {
		anyActive := false
		for j := 0; j < n; j++ {
			if bs.states[j].active {
				bs.states[j].improved = false
				anyActive = true
			}
		}
		if !anyActive {
			return
		}
		var grouped [batchBlock]bool
		for j := 0; j < n; j++ {
			s := &bs.states[j]
			if !s.active || grouped[j] {
				continue
			}
			slot := s.cur
			nq, nx := 0, 0
			for m := j; m < n; m++ {
				t := &bs.states[m]
				if !t.active || grouped[m] || t.cur != slot {
					continue
				}
				grouped[m] = true
				if t.useQ {
					bs.qmem[nq] = t
					nq++
				} else {
					bs.xmem[nx] = t
					nx++
				}
			}
			ix.descentGroup(bs, slot, l, nq, nx)
		}
		for j := 0; j < n; j++ {
			s := &bs.states[j]
			if !s.active {
				continue
			}
			s.steps++
			if !s.improved {
				s.active = false
			}
		}
	}
}

// descentGroup runs one improvement round for every group member
// against the neighbor list of slot on layer l. The list is the one the
// members' round started at, so a member whose cursor advances mid-scan
// still scans the remaining entries: a running minimum over a list bound
// at round start.
func (ix *Index) descentGroup(bs *batchScratch, slot int32, l, nq, nx int) {
	nbs := ix.nodes[slot].neighbors[l]
	dim := ix.dim
	if nq > 0 {
		bs.qcodes = bs.qcodes[:0]
		for m := 0; m < nq; m++ {
			bs.qcodes = append(bs.qcodes, bs.qmem[m].qcode)
		}
		for _, nb := range nbs {
			cpu.PrefetchRange(unsafe.Pointer(&ix.qflat[int(nb)*dim]), dim)
		}
	}
	for _, nb := range nbs {
		if nq > 0 {
			n := int(nb)
			c := ix.qcorr[n]
			quant.Dot8Many(ix.qflat[n*dim:(n+1)*dim], bs.qcodes, bs.dots[:nq])
			for m := 0; m < nq; m++ {
				s := bs.qmem[m]
				if d := 1 - float64(bs.dots[m])*s.qscale*c; d < s.curD {
					s.cur, s.curD = nb, d
					s.improved = true
				}
			}
		}
		for m := 0; m < nx; m++ {
			s := bs.xmem[m]
			if d := 1 - ix.stateDot(s, nb); d < s.curD {
				s.cur, s.curD = nb, d
				s.improved = true
			}
		}
	}
}

// seedBeam starts a beam (of width s.ef) from slot ep, whose distance to
// the query is d. The visited marks must be clear.
func (s *batchQueryState) seedBeam(ep int32, d float64) {
	s.cands = candHeap{data: s.cands.data[:0], min: true}
	s.results = candHeap{data: s.results.data[:0]}
	s.pending = s.pending[:0]
	s.visited.visit(ep)
	seed := candidate{ep, d}
	s.cands.push(seed)
	s.results.push(seed)
	s.searching = true
}

// beamTurn advances one query's beam on layer l by one expansion, in two
// phases split across turns: score the neighbors gathered (and
// prefetched) last turn, then pop the next candidate and gather its
// unvisited neighbors. Per query this is the beam search of the HNSW
// paper (Algorithm 2), operation for operation; when s.searching drops,
// s.results holds up to ef candidates in heap order, tombstoned nodes
// included (callers filter them).
func (ix *Index) beamTurn(s *batchQueryState, l int) {
	if len(s.pending) > 0 {
		if s.useQ {
			ix.scorePendingQ(s)
		} else {
			for _, nb := range s.pending {
				s.beamPush(nb, 1-ix.stateDot(s, nb))
			}
		}
		s.pending = s.pending[:0]
	}
	if s.cands.len() == 0 {
		s.searching = false
		return
	}
	c := s.cands.pop()
	s.pops++
	if s.results.len() >= s.ef && c.dist > s.results.top().dist {
		s.searching = false
		return
	}
	useQ := s.useQ
	dim := ix.dim
	for _, nb := range ix.nodes[c.slot].neighbors[l] {
		if !s.visited.visit(nb) {
			continue
		}
		s.pending = append(s.pending, nb)
		if useQ {
			// The code address is computed from the slot alone (slot-major
			// flat array), so the gather issues its prefetches without a
			// single node-header load — the header chase was the dominant
			// demand miss of this loop when codes hung off the nodes. One
			// call per neighbor, not one batched call for the whole set:
			// spreading the issue across the visit checks keeps the line
			// fill buffers from saturating on a single burst. The per-slot
			// corr float is deliberately not prefetched: that array is
			// small enough to stay cache-resident on its own, and the
			// extra issue cost measured as a net loss.
			cpu.PrefetchRange(unsafe.Pointer(&ix.qflat[int(nb)*dim]), dim)
		} else {
			ix.prefetchRow(nb)
		}
	}
	// The next turn starts by popping the heap top and chasing its node
	// header for the adjacency list; pull both lines in now so that pop
	// doesn't stall on the header.
	if s.cands.len() > 0 {
		nd := &ix.nodes[s.cands.data[0].slot]
		cpu.PrefetchRange(unsafe.Pointer(nd), 128)
	}
}

// beamPush applies the beam's admission test for one scored neighbor. It
// must run per neighbor, in gather order: an admitted candidate tightens
// results.top() for the very next test.
func (s *batchQueryState) beamPush(nb int32, d float64) {
	if s.results.len() < s.ef || d < s.results.top().dist {
		c := candidate{nb, d}
		s.cands.push(c)
		s.results.push(c)
		if s.results.len() > s.ef {
			s.results.pop()
		}
	}
}

// scorePendingQ scores the gathered neighbors on SQ8 codes, two at a
// time through the shared-operand pair kernel (the query code is
// sign-extended once per block for both products).
func (ix *Index) scorePendingQ(s *batchQueryState) {
	qcode, qscale := s.qcode, s.qscale
	flat, corr, dim := ix.qflat, ix.qcorr, ix.dim
	p := s.pending
	i := 0
	for ; i+1 < len(p); i += 2 {
		n0, n1 := int(p[i]), int(p[i+1])
		s0, s1 := quant.Dot8Pair(qcode, flat[n0*dim:(n0+1)*dim], flat[n1*dim:(n1+1)*dim])
		s.beamPush(p[i], 1-float64(s0)*qscale*corr[n0])
		s.beamPush(p[i+1], 1-float64(s1)*qscale*corr[n1])
	}
	if i < len(p) {
		n := int(p[i])
		s.beamPush(p[i], 1-float64(quant.Dot8(qcode, flat[n*dim:(n+1)*dim]))*qscale*corr[n])
	}
}

// rerankState turns one query's beam output into its final results:
// ascending-distance candidate order, tombstone/skip filtering down to
// the fetch depth, exact re-scoring on the quantized path — one
// full-width dot per surviving candidate instead of one per traversal
// hop — then the descending-score/ascending-id sort and the cut to k.
func (ix *Index) rerankState(s *batchQueryState, skip func(qi, id int) bool, out []Result) []Result {
	cands := s.results.data
	slices.SortFunc(cands, byDist)
	out = out[:0]
	for ci, c := range cands {
		if s.useQ && ci+1 < len(cands) {
			// Touch the head of the next candidate's row while this one is
			// being scored; the hardware prefetcher follows the sequential
			// stream from there. Pulling whole rows in software costs more
			// in issued prefetches than the misses it saves.
			if ix.f32 {
				if v := ix.nodes[cands[ci+1].slot].vec32; len(v) > 0 {
					cpu.PrefetchRange(unsafe.Pointer(&v[0]), 128)
				}
			} else if v := ix.nodes[cands[ci+1].slot].vec; len(v) > 0 {
				cpu.PrefetchRange(unsafe.Pointer(&v[0]), 128)
			}
		}
		nd := &ix.nodes[c.slot]
		if nd.deleted || (skip != nil && skip(s.qi, nd.id)) {
			continue
		}
		score := 1 - c.dist
		if s.useQ {
			score = ix.stateDot(s, c.slot)
			s.reranked++
		}
		out = append(out, Result{ID: nd.id, Score: score})
		if len(out) == s.fetch {
			break
		}
	}
	slices.SortFunc(out, byScore)
	if len(out) > s.k {
		out = out[:s.k]
	}
	return out
}

// byScore orders results by descending score, ties by ascending id.
func byScore(a, b Result) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}
