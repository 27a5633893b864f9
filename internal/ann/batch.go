package ann

import (
	"slices"
	"time"
	"unsafe"

	"github.com/retrodb/retro/internal/cpu"
	"github.com/retrodb/retro/internal/quant"
	"github.com/retrodb/retro/internal/vec"
)

// This file is the batched query engine: TopKMany runs Q queries through
// the graph together and returns, per query, exactly what a TopK call
// would have — bit-identical results, proven by the property tests. The
// speedup is entirely scheduling, in three places:
//
//   - Upper-layer descent is coalesced: queries sitting at the same node
//     share one adjacency load, and each neighbor's code is scored
//     against the whole group in one quant.Dot8Many call, so the node
//     operand is streamed from memory once per group instead of once
//     per query.
//
//   - The layer-0 beam is interleaved: queries advance round-robin in
//     blocks of batchBlock, and each expansion is split in two — the
//     turn that pops a candidate gathers its unvisited neighbors and
//     issues prefetches for their codes, and the *next* turn scores
//     them. The other queries' arithmetic fills the DRAM latency the
//     prefetches are hiding; a lone query has nothing to overlap that
//     wait with, which is why this engine beats a loop of TopK calls
//     even on one core.
//
//   - The exact re-rank prefetches the next candidate's float64 row
//     (those rows live in a matrix far larger than cache) while the
//     current one is being scored.
//
// Per-query algorithm state — visited marks, both beam heaps, the
// greedy-descent position — evolves exactly as it does in TopKAppend,
// in the same order, under the same kernels, so ties, tombstone
// widening and re-rank cut-offs all agree with the single-query path.

// batchBlock is the number of queries traversed together. Eight is
// enough in-flight work to cover a DRAM miss (~10 dot products per
// stall) while the per-block scratch (visited marks, heaps) stays small
// enough to pool.
const batchBlock = 8

// batchQueryState is one query's slice of the block scratch: the same
// pieces searchScratch carries for a single query, plus the descent
// cursor and the two-phase expansion buffer.
type batchQueryState struct {
	visited visitedSet
	q       []float64 // unit-normalised query
	q32     []float32 // narrowed query (f32 index only)
	qcode   []int8
	qscale  float64
	useQ    bool

	cands   candHeap // layer-0 beam min-heap
	results candHeap // layer-0 beam max-heap (bounded at ef)
	pending []int32  // gathered, prefetched, not-yet-scored neighbors

	cur  int32   // descent cursor: current closest slot
	curD float64 // its distance

	improved  bool // descent: this round found a closer neighbor
	active    bool // descent: still iterating rounds on this layer
	searching bool // beam: not yet terminated

	empty    bool // degenerate query: produce an empty result
	qi       int  // index into the caller's queries slice
	k        int
	fetch    int
	ef       int
	pops     int
	steps    int
	reranked int
}

// batchScratch is everything one TopKMany block needs, pooled on the
// index so steady-state batches allocate nothing.
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
// batch, Quantized set if any query ran on codes.
func (ix *Index) TopKManyAppendStats(queries [][]float64, ks []int, skip func(qi, id int) bool, dst [][]Result, st *SearchStats) [][]Result {
	if len(queries) != len(ks) {
		panic("ann: TopKMany ks length mismatch")
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

// stateDist scores slot under the state's prepared query, with the same
// kernels and operation order as the single-query dist/distQ/distX.
func (ix *Index) stateDist(s *batchQueryState, slot int32) float64 {
	if s.useQ {
		return 1 - float64(quant.Dot8(s.qcode, ix.code(slot)))*s.qscale*ix.qcorr[slot]
	}
	nd := &ix.nodes[slot]
	if ix.f32 {
		return 1 - vec.Dot32(s.q32, nd.vec32)
	}
	return 1 - vec.Dot(s.q, nd.vec)
}

func (ix *Index) runBatchBlock(bs *batchScratch, queries [][]float64, ks []int, skip func(qi, id int) bool, dst [][]Result, base, n int, st *SearchStats) {
	// Per-query setup: the same validation, clamps and beam sizing as
	// TopKAppendStats, applied per query so a batch of one is not a
	// special case.
	for j := 0; j < n; j++ {
		s := &bs.states[j]
		qi := base + j
		s.qi = qi
		s.empty = true
		s.searching = false
		s.pops, s.steps, s.reranked = 0, 0, 0
		s.visited.reset()
		query := queries[qi]
		if len(query) != ix.dim {
			// The scratch is simply not returned to the pool — a panic here
			// is a caller bug, not a path that needs to stay allocation-free.
			panic("ann: TopKMany query dimension mismatch")
		}
		k := ks[qi]
		if k <= 0 || ix.entry < 0 {
			continue
		}
		if k > len(ix.slots) {
			k = len(ix.slots)
		}
		qn := vec.Norm(query)
		if qn == 0 {
			continue
		}
		if cap(s.q) < ix.dim {
			s.q = make([]float64, ix.dim)
		}
		s.q = s.q[:ix.dim]
		for i, x := range query {
			s.q[i] = x / qn
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
		// Beam sizing: identical formulas to the single-query path (see
		// TopKAppendStats for the rationale behind each term).
		fetch := k
		ef := ix.params.EfSearch
		if s.useQ {
			r := ix.rerank
			if r < 1 {
				r = DefaultRerank
			}
			fetch = k * r
			if fetch > len(ix.slots) {
				fetch = len(ix.slots)
			}
			ef /= 2
		}
		if ef < fetch {
			ef = fetch
		}
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
		s.k, s.fetch, s.ef = k, fetch, ef
		if len(s.visited.marks) < len(ix.nodes) {
			s.visited.marks = make([]bool, 2*len(ix.nodes))
		}
		s.cur = ix.entry
		s.curD = ix.stateDist(s, ix.entry)
		s.empty = false
	}

	var walkStart time.Time
	if st != nil {
		walkStart = time.Now()
	}

	// Coalesced greedy descent, one layer at a time. Queries whose round
	// found no improvement settle; the rest regroup by their new cursor.
	for l := ix.maxLevel; l > 0; l-- {
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
				break
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

	// Interleaved layer-0 beam: seed every query at its descended entry,
	// then advance round-robin until all terminate.
	remaining := 0
	for j := 0; j < n; j++ {
		s := &bs.states[j]
		if s.empty {
			continue
		}
		s.cands.data = s.cands.data[:0]
		s.cands.min = true
		s.results.data = s.results.data[:0]
		s.results.min = false
		s.pending = s.pending[:0]
		s.visited.visit(s.cur)
		seed := candidate{s.cur, s.curD}
		s.cands.push(seed)
		s.results.push(seed)
		s.searching = true
		remaining++
	}
	for remaining > 0 {
		for j := 0; j < n; j++ {
			s := &bs.states[j]
			if !s.searching {
				continue
			}
			ix.beamTurn(s)
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

	// Re-rank and order each query's beam output exactly as the
	// single-query path does.
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

// descentGroup runs one improvement round for every group member
// against the neighbor list of slot on layer l. The list is the one the
// members' round started at, so a member whose cursor advances mid-scan
// still scans the remaining entries — exactly greedyClosest's running
// minimum over a list bound at round start.
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
		if ix.f32 {
			for m := 0; m < nx; m++ {
				s := bs.xmem[m]
				if d := 1 - vec.Dot32(s.q32, ix.nodes[nb].vec32); d < s.curD {
					s.cur, s.curD = nb, d
					s.improved = true
				}
			}
		} else {
			for m := 0; m < nx; m++ {
				s := bs.xmem[m]
				if d := 1 - vec.Dot(s.q, ix.nodes[nb].vec); d < s.curD {
					s.cur, s.curD = nb, d
					s.improved = true
				}
			}
		}
	}
}

// beamTurn advances one query by one expansion, in two phases split
// across turns: score the neighbors gathered (and prefetched) last
// turn, then pop the next candidate and gather its unvisited neighbors.
// Per query the operation order is exactly searchLayer's; only the
// other queries' turns are spliced between gather and score, which is
// what turns the prefetches into overlapped latency instead of stalls.
func (ix *Index) beamTurn(s *batchQueryState) {
	if len(s.pending) > 0 {
		if s.useQ {
			ix.scorePendingQ(s)
		} else {
			ix.scorePendingX(s)
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
	for _, nb := range ix.nodes[c.slot].neighbors[0] {
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
		} else if ix.f32 {
			nd := &ix.nodes[nb]
			cpu.PrefetchRange(unsafe.Pointer(&nd.vec32[0]), 4*len(nd.vec32))
		} else {
			nd := &ix.nodes[nb]
			cpu.PrefetchRange(unsafe.Pointer(&nd.vec[0]), 8*len(nd.vec))
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

// beamPush applies searchLayer's admission test for one scored
// neighbor. It must run per neighbor, in gather order: an admitted
// candidate tightens results.top() for the very next test.
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

func (ix *Index) scorePendingX(s *batchQueryState) {
	if ix.f32 {
		for _, nb := range s.pending {
			s.beamPush(nb, 1-vec.Dot32(s.q32, ix.nodes[nb].vec32))
		}
		return
	}
	for _, nb := range s.pending {
		s.beamPush(nb, 1-vec.Dot(s.q, ix.nodes[nb].vec))
	}
}

// rerankState turns one query's beam output into its final results:
// ascending-distance candidate order, tombstone/skip filtering, exact
// re-scoring on the quantized path with the next row prefetched, then
// the descending-score/ascending-id sort and the cut to k — all
// mirroring TopKAppendStats line for line.
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
			if ix.f32 {
				score = vec.Dot32(s.q32, nd.vec32)
			} else {
				score = vec.Dot(s.q, nd.vec)
			}
			s.reranked++
		}
		out = append(out, Result{ID: nd.id, Score: score})
		if len(out) == s.fetch {
			break
		}
	}
	slices.SortFunc(out, func(a, b Result) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		if a.ID < b.ID {
			return -1
		}
		if a.ID > b.ID {
			return 1
		}
		return 0
	})
	if len(out) > s.k {
		out = out[:s.k]
	}
	return out
}
