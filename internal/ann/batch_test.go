package ann

import (
	"math/rand"
	"testing"

	"github.com/retrodb/retro/internal/cpu"
)

// assertBatchMatchesLoop asserts the engine's contract. Per query, the
// result in a batch is BIT-IDENTICAL to the single-query call — same ids,
// same float64 score bits, same order: a single query is a block of one,
// so this says that what else shares a query's block changes nothing. And
// that block of one equals the textbook traversal (reference_test.go), so
// scheduling is the only thing the engine adds to it.
func assertBatchMatchesLoop(t *testing.T, ix *Index, queries [][]float64, ks []int, skip func(qi, id int) bool) {
	t.Helper()
	got := ix.TopKManyAppend(queries, ks, skip, nil)
	if len(got) != len(queries) {
		t.Fatalf("TopKMany returned %d result sets for %d queries", len(got), len(queries))
	}
	for qi := range queries {
		var single func(id int) bool
		if skip != nil {
			qi := qi
			single = func(id int) bool { return skip(qi, id) }
		}
		assertMatchesReference(t, ix, queries[qi], ks[qi], single)
		want := ix.TopK(queries[qi], ks[qi], single)
		if len(got[qi]) != len(want) {
			t.Fatalf("query %d: batch returned %d results, single %d", qi, len(got[qi]), len(want))
		}
		for i := range want {
			if got[qi][i] != want[i] {
				t.Fatalf("query %d result %d: batch %+v, single %+v", qi, i, got[qi][i], want[i])
			}
		}
	}
}

// batchParityIndexes builds the index flavours the parity suite runs
// against: float64 and float32 rows, each exact and quantized.
func batchParityIndexes(t *testing.T) map[string]*Index {
	t.Helper()
	vectors := randomVectors(900, 32, 41)
	out := map[string]*Index{}
	for prefix, mk := range map[string]func(int, Params) *Index{"": New, "f32-": New32} {
		for _, name := range []string{"exact", "quantized"} {
			ix := buildWorld(t, func(dim int, _ [][]float64) *Index { return mk(dim, Params{EfSearch: 48}) }, vectors)
			if name == "quantized" {
				ix.QuantizeSQ8(3)
			}
			out[prefix+name] = ix
		}
	}
	return out
}

// TestTopKManyMatchesLoopedTopK is the property test of the engine on
// freshly built graphs: over every index flavour and every kernel
// dispatch level this CPU has, TopKMany(queries) == [TopK(q) for q in
// queries] == [reference(q) for q in queries] bit for bit — including
// the quantized path's re-rank ordering, because the re-rank runs under
// the same dispatched float64 kernel.
func TestTopKManyMatchesLoopedTopK(t *testing.T) {
	indexes := batchParityIndexes(t)
	queries := randomVectors(37, 32, 43) // crosses block boundaries: 37 = 4*8 + 5
	orig := cpu.Active()
	defer cpu.SetLevel(orig)
	for name, ix := range indexes {
		for _, l := range []cpu.Level{cpu.Scalar, cpu.SSE2, cpu.AVX2} {
			if l > cpu.Detected() {
				continue
			}
			cpu.SetLevel(l)
			t.Run(name+"/"+l.String(), func(t *testing.T) {
				ks := make([]int, len(queries))
				for i := range ks {
					ks[i] = 10
				}
				assertBatchMatchesLoop(t, ix, queries, ks, nil)
			})
		}
	}
	cpu.SetLevel(orig)
}

// TestTopKManyPerQueryKAndSkip exercises the envelope features the HTTP
// batch endpoint relies on: per-item k values (including zero and
// k > index size) and a per-query skip callback.
func TestTopKManyPerQueryKAndSkip(t *testing.T) {
	indexes := batchParityIndexes(t)
	queries := randomVectors(19, 32, 47)
	ks := make([]int, len(queries))
	for i := range ks {
		ks[i] = []int{1, 3, 10, 0, 5000, 7, 2, -1}[i%8]
	}
	skip := func(qi, id int) bool { return id%7 == qi%7 }
	for name, ix := range indexes {
		t.Run(name, func(t *testing.T) {
			assertBatchMatchesLoop(t, ix, queries, ks, skip)
		})
	}
}

// TestTopKManyWithTombstones: tombstone beam widening must match the
// single path, and deleted ids must never surface.
func TestTopKManyWithTombstones(t *testing.T) {
	for name, ix := range batchParityIndexes(t) {
		t.Run(name, func(t *testing.T) {
			for id := 0; id < 900; id += 3 {
				ix.Delete(id)
			}
			queries := randomVectors(11, 32, 53)
			ks := make([]int, len(queries))
			for i := range ks {
				ks[i] = 10
			}
			assertBatchMatchesLoop(t, ix, queries, ks, nil)
			got := ix.TopKMany(queries, 10, nil)
			for qi, rs := range got {
				for _, r := range rs {
					if r.ID%3 == 0 {
						t.Fatalf("query %d returned deleted id %d", qi, r.ID)
					}
				}
			}
		})
	}
}

// TestTopKManyDegenerateQueries: zero vectors and empty batches produce
// empty per-query results without disturbing their neighbors in the
// block.
func TestTopKManyDegenerateQueries(t *testing.T) {
	indexes := batchParityIndexes(t)
	for name, ix := range indexes {
		t.Run(name, func(t *testing.T) {
			queries := randomVectors(5, 32, 59)
			for i := range queries[2] {
				queries[2][i] = 0 // zero vector mid-block
			}
			ks := []int{10, 10, 10, 10, 10}
			assertBatchMatchesLoop(t, ix, queries, ks, nil)
			if got := ix.TopKMany(nil, 10, nil); len(got) != 0 {
				t.Fatalf("empty batch returned %d result sets", len(got))
			}
		})
	}
}

// TestTopKManyEmptyIndex: every query of a batch against an empty index
// comes back empty.
func TestTopKManyEmptyIndex(t *testing.T) {
	ix := New(8, Params{})
	got := ix.TopKMany(randomVectors(3, 8, 61), 5, nil)
	for qi, rs := range got {
		if len(rs) != 0 {
			t.Fatalf("query %d on empty index returned %d results", qi, len(rs))
		}
	}
}

// TestTopKManyAppendReusesStorage: a second call with the returned
// slices must not grow them, and must leave correct contents.
func TestTopKManyAppendReusesStorage(t *testing.T) {
	indexes := batchParityIndexes(t)
	ix := indexes["quantized"]
	queries := randomVectors(9, 32, 67)
	ks := make([]int, len(queries))
	for i := range ks {
		ks[i] = 10
	}
	dst := ix.TopKManyAppend(queries, ks, nil, nil)
	// Warm the pools, then verify reuse returns identical results.
	again := ix.TopKManyAppend(queries, ks, nil, dst)
	assertBatchMatchesLoop(t, ix, queries, ks, nil)
	if len(again) != len(queries) {
		t.Fatalf("reused call returned %d sets", len(again))
	}
}

// TestTopKManyStats: the aggregate stats must be consistent with the
// work the batch performed.
func TestTopKManyStats(t *testing.T) {
	indexes := batchParityIndexes(t)
	queries := randomVectors(12, 32, 71)
	ks := make([]int, len(queries))
	for i := range ks {
		ks[i] = 10
	}
	for name, ix := range indexes {
		t.Run(name, func(t *testing.T) {
			var st SearchStats
			ix.TopKManyAppendStats(queries, ks, nil, nil, &st)
			if st.Hops == 0 || st.Nodes == 0 {
				t.Fatalf("batch stats empty: %+v", st)
			}
			if st.WalkNs <= 0 {
				t.Fatalf("no walk time recorded: %+v", st)
			}
			quantized := ix.Quantized()
			if st.Quantized != quantized {
				t.Fatalf("Quantized=%v on %s index", st.Quantized, name)
			}
			if quantized && st.Reranked == 0 {
				t.Fatalf("quantized batch reranked nothing: %+v", st)
			}
			if !quantized && st.Reranked != 0 {
				t.Fatalf("exact batch reports reranked=%d", st.Reranked)
			}
		})
	}
}

// TestTopKManyKsMismatchPanics guards the API contract.
func TestTopKManyKsMismatchPanics(t *testing.T) {
	ix := New(8, Params{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ks length mismatch")
		}
	}()
	ix.TopKManyAppend(randomVectors(2, 8, 73), []int{5}, nil, nil)
}

// TestTopKManyBadQueryPanicsBeforeAnswering: arguments are checked once,
// on entry. A query of the wrong dimension in the third block must panic
// before any earlier block is answered — dst keeps what it held.
func TestTopKManyBadQueryPanicsBeforeAnswering(t *testing.T) {
	ix := buildIndex(t, randomVectors(100, 8, 83), Params{})
	queries := randomVectors(2*batchBlock+3, 8, 89)
	queries[2*batchBlock+1] = queries[0][:7]
	ks := make([]int, len(queries))
	dst := make([][]Result, len(queries))
	for i := range dst {
		ks[i] = 3
		dst[i] = []Result{{ID: -1 - i}}
	}
	defer func() {
		if r := recover(); r != "ann: TopK query dimension mismatch" {
			t.Fatalf("recovered %v, want the dimension-mismatch panic", r)
		}
		for i, rs := range dst {
			if len(rs) != 1 || rs[0].ID != -1-i {
				t.Fatalf("dst[%d] = %+v: a rejected batch wrote results", i, rs)
			}
		}
	}()
	ix.TopKManyAppend(queries, ks, nil, dst)
}

// TestTopKManyConcurrent: batches must be safe to run concurrently with
// each other and with single queries (the race detector is the real
// assertion here).
func TestTopKManyConcurrent(t *testing.T) {
	indexes := batchParityIndexes(t)
	ix := indexes["quantized"]
	queries := randomVectors(16, 32, 79)
	ks := make([]int, len(queries))
	for i := range ks {
		ks[i] = 5
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				if rng.Intn(2) == 0 {
					ix.TopKMany(queries, 5, nil)
				} else {
					ix.TopK(queries[rng.Intn(len(queries))], 5, nil)
				}
			}
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// TestTopKManyZeroAlloc guards the batch engine's steady state: with a
// warm batch-scratch pool and caller-owned dst, a whole batch must not
// allocate — per-query heaps, visited marks, pending buffers and query
// codes all come from the pooled block scratch.
func TestTopKManyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	vectors := randomVectors(2000, 32, 13)
	for _, quantized := range []bool{false, true} {
		name := "exact"
		if quantized {
			name = "quantized"
		}
		t.Run(name, func(t *testing.T) {
			ix := buildIndex(t, vectors, DefaultParams())
			if quantized {
				ix.QuantizeSQ8(3)
			}
			queries := randomVectors(16, 32, 17)
			ks := make([]int, len(queries))
			for i := range ks {
				ks[i] = 10
			}
			dst := make([][]Result, len(queries))
			for i := range dst {
				dst[i] = make([]Result, 0, 16)
			}
			var st SearchStats
			dst = ix.TopKManyAppendStats(queries, ks, nil, dst, &st) // warm pools
			allocs := testing.AllocsPerRun(50, func() {
				dst = ix.TopKManyAppendStats(queries, ks, nil, dst, &st)
			})
			if allocs != 0 {
				t.Fatalf("TopKMany allocated %.2f times per batch, want 0", allocs)
			}
		})
	}
}
