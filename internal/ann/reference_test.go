package ann

import (
	"slices"
	"testing"

	"github.com/retrodb/retro/internal/cpu"
	"github.com/retrodb/retro/internal/quant"
	"github.com/retrodb/retro/internal/vec"
)

// reference is the oracle the search engine is held to: a textbook
// single-query HNSW traversal over an index's graph — greedy descent,
// the Algorithm 2 beam, one neighbour loaded and scored at a time — with
// none of the engine's scheduling (no blocks, no coalescing, no two-phase
// expansion, no prefetch). The index flavour is one dist closure chosen
// up front, not a loop written out per kernel. It borrows three things
// that are not the walk: the candidate heap, so that candidates at equal
// distance leave the beam in the same order, beamSize, which is policy,
// and the two sort orders.
type reference struct {
	ix      *Index
	dist    func(slot int32) float64 // what the walk scores a hop with
	cosine  func(slot int32) float64 // exact, for the re-rank
	onCodes bool
	visited map[int32]bool
	hops    int
}

func newReference(ix *Index, unit []float64) *reference {
	r := &reference{ix: ix, cosine: func(s int32) float64 { return vec.Dot(unit, ix.nodes[s].vec) }}
	if ix.f32 {
		q32 := vec.Narrow(make([]float32, ix.dim), unit)
		r.cosine = func(s int32) float64 { return vec.Dot32(q32, ix.nodes[s].vec32) }
	}
	r.dist = func(s int32) float64 { return 1 - r.cosine(s) }
	if ix.quant != nil {
		qcode := make([]int8, ix.dim)
		if qscale := ix.quant.EncodeQuery(qcode, unit); qscale > 0 {
			r.onCodes = true
			r.dist = func(s int32) float64 {
				return 1 - float64(quant.Dot8(qcode, ix.code(s)))*qscale*ix.qcorr[s]
			}
		}
	}
	return r
}

// descend walks greedily from the entry point through the layers above
// bottom, on each to the locally closest node.
func (r *reference) descend(bottom int) int32 {
	best, bestD := r.ix.entry, r.dist(r.ix.entry)
	for l := r.ix.maxLevel; l > bottom; l-- {
		for improved := true; improved; {
			improved = false
			r.hops++
			for _, nb := range r.ix.nodes[best].neighbors[l] {
				if d := r.dist(nb); d < bestD {
					best, bestD, improved = nb, d, true
				}
			}
		}
	}
	return best
}

// beam is Algorithm 2: up to ef candidates on layer l, in heap order.
func (r *reference) beam(ep int32, ef, l int) []candidate {
	r.visited = map[int32]bool{ep: true}
	cands, results := candHeap{min: true}, candHeap{}
	seed := candidate{ep, r.dist(ep)}
	cands.push(seed)
	results.push(seed)
	for cands.len() > 0 {
		c := cands.pop()
		r.hops++
		if results.len() >= ef && c.dist > results.top().dist {
			break
		}
		for _, nb := range r.ix.nodes[c.slot].neighbors[l] {
			if r.visited[nb] {
				continue
			}
			r.visited[nb] = true
			if d := r.dist(nb); results.len() < ef || d < results.top().dist {
				cands.push(candidate{nb, d})
				results.push(candidate{nb, d})
				if results.len() > ef {
					results.pop()
				}
			}
		}
	}
	return results.data
}

// referenceTopK answers one query the textbook way: normalise, descend,
// beam, filter, re-score exactly when the walk ran on codes, sort, cut.
func referenceTopK(ix *Index, query []float64, k int, skip func(id int) bool) ([]Result, SearchStats) {
	if k <= 0 || ix.entry < 0 || vec.Norm(query) == 0 {
		return nil, SearchStats{}
	}
	k = min(k, len(ix.slots))
	r := newReference(ix, unitOf(query))
	fetch, ef := ix.beamSize(k, r.onCodes, skip != nil)
	cands := r.beam(r.descend(0), ef, 0)
	slices.SortFunc(cands, byDist)
	st := SearchStats{Hops: r.hops, Nodes: len(r.visited), Quantized: r.onCodes}
	var out []Result
	for _, c := range cands {
		nd := &ix.nodes[c.slot]
		if nd.deleted || (skip != nil && skip(nd.id)) {
			continue
		}
		score := 1 - c.dist
		if r.onCodes {
			score = r.cosine(c.slot)
			st.Reranked++
		}
		if out = append(out, Result{ID: nd.id, Score: score}); len(out) == fetch {
			break
		}
	}
	slices.SortFunc(out, byScore)
	return out[:min(k, len(out))], st
}

// assertMatchesReference holds one query on the engine — a block of one —
// to the reference, bit for bit: ids, float64 score bits, order, and the
// traversal counters.
func assertMatchesReference(t *testing.T, ix *Index, query []float64, k int, skip func(id int) bool) {
	t.Helper()
	var st SearchStats
	got := ix.TopKAppendStats(query, k, skip, nil, &st)
	want, wantSt := referenceTopK(ix, query, k, skip)
	if !slices.Equal(got, want) {
		t.Fatalf("k=%d: engine returned %+v, reference %+v", k, got, want)
	}
	st.WalkNs, st.RerankNs = 0, 0
	if st != wantSt {
		t.Fatalf("k=%d: engine stats %+v, reference %+v", k, st, wantSt)
	}
}

// TestTopKMatchesReference is the engine's contract in two halves, on
// every index flavour and every kernel dispatch level this CPU has:
// a batch of one equals the reference, and a batch of N equals N batches
// of one — what else is in a query's block changes nothing. The indexes
// have been moved in place and carry tombstones, so the graph is the kind
// the server ends up with and the tombstone widening is in play.
func TestTopKMatchesReference(t *testing.T) {
	indexes := batchParityIndexes(t)
	queries := randomVectors(37, 32, 97) // crosses block boundaries: 37 = 4*8 + 5
	ks := make([]int, len(queries))
	for i := range ks {
		ks[i] = []int{10, 1, 3, 0, 5000, 7, 25}[i%7]
	}
	skip := func(qi, id int) bool { return id%5 == qi%5 }
	for _, ix := range indexes {
		for id, v := range randomVectors(200, 32, 98) {
			if err := ix.Insert(id*4, v); err != nil {
				t.Fatal(err)
			}
		}
		for id := 1; id < 900; id += 9 {
			ix.Delete(id)
		}
	}
	defer cpu.SetLevel(cpu.Active())
	for name, ix := range indexes {
		for _, l := range []cpu.Level{cpu.Scalar, cpu.SSE2, cpu.AVX2} {
			if l > cpu.Detected() {
				continue
			}
			cpu.SetLevel(l)
			t.Run(name+"/"+l.String(), func(t *testing.T) {
				assertBatchMatchesLoop(t, ix, queries, ks, nil)
				assertBatchMatchesLoop(t, ix, queries, ks, skip)
			})
		}
	}
}
