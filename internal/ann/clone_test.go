package ann

import (
	"math/rand"
	"slices"
	"testing"
)

// snapshotTopK captures query results for a fixed probe set so a graph
// can be checked for bit-identical behaviour later.
func snapshotTopK(ix *Index, probes [][]float64, k int) [][]Result {
	out := make([][]Result, len(probes))
	for i, q := range probes {
		out[i] = ix.TopK(q, k, nil)
	}
	return out
}

func sameResults(a, b [][]Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// indexState is a deep copy of everything an index stores per slot, for
// asserting that an index did not change underneath its clone's writes.
type indexState struct {
	vecs      [][]float64
	vecs32    [][]float32
	neighbors [][][]int32
	qflat     []int8
	qcorr     []float64
}

func captureState(ix *Index) indexState {
	st := indexState{qflat: slices.Clone(ix.qflat), qcorr: slices.Clone(ix.qcorr)}
	for i := range ix.nodes {
		nd := &ix.nodes[i]
		st.vecs = append(st.vecs, slices.Clone(nd.vec))
		st.vecs32 = append(st.vecs32, slices.Clone(nd.vec32))
		layers := make([][]int32, len(nd.neighbors))
		for l, layer := range nd.neighbors {
			layers[l] = slices.Clone(layer)
		}
		st.neighbors = append(st.neighbors, layers)
	}
	return st
}

func (a indexState) equal(b indexState) bool {
	same := len(a.vecs) == len(b.vecs) && slices.Equal(a.qflat, b.qflat) && slices.Equal(a.qcorr, b.qcorr)
	for i := 0; same && i < len(a.vecs); i++ {
		same = slices.Equal(a.vecs[i], b.vecs[i]) && slices.Equal(a.vecs32[i], b.vecs32[i]) &&
			slices.EqualFunc(a.neighbors[i], b.neighbors[i], func(x, y []int32) bool { return slices.Equal(x, y) })
	}
	return same
}

// TestCloneIsolation: mutations on either side of a Clone are invisible
// to the other — the property the serving layer's copy-on-write
// discipline rests on.
func TestCloneIsolation(t *testing.T) {
	const n, dim, k = 600, 24, 10
	vectors := randomVectors(n+200, dim, 11)
	ix := buildIndex(t, vectors[:n], Params{})
	probes := randomVectors(20, dim, 99)

	before, state := snapshotTopK(ix, probes, k), captureState(ix)
	cp := ix.Clone()

	// Mutate the clone heavily: inserts (linking into shared adjacency
	// neighbourhoods), moves (near and far, re-linked in the slots both
	// sides share) and deletes.
	for i := n; i < n+200; i++ {
		if err := cp.Insert(i, vectors[i]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		if err := cp.Insert(i, vectors[n+i]); err != nil {
			t.Fatal(err)
		}
		if err := cp.Insert(100+i, nudged(rng, vectors[100+i], 1e-4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 50; i < 80; i++ {
		cp.Delete(i)
	}

	if got := snapshotTopK(ix, probes, k); !sameResults(before, got) {
		t.Fatal("mutating a clone changed the original's results")
	}
	if !captureState(ix).equal(state) {
		t.Fatal("mutating a clone changed the original's vectors or adjacency")
	}
	if ix.Len() != n {
		t.Fatalf("original Len = %d after clone mutations, want %d", ix.Len(), n)
	}

	// And the other direction: mutate the original, the clone holds.
	cp2 := ix.Clone()
	want := snapshotTopK(cp2, probes, k)
	for i := 0; i < 40; i++ {
		if err := ix.Insert(i, vectors[n+100+i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := snapshotTopK(cp2, probes, k); !sameResults(want, got) {
		t.Fatal("mutating the original changed a clone's results")
	}
}

// TestCloneRNGReplay: a clone continues the level sequence exactly where
// the original is, so identical post-clone insert streams produce
// identical graphs on both sides (the same guarantee io.Read gives a
// deserialised index).
func TestCloneRNGReplay(t *testing.T) {
	const n, extra, dim, k = 300, 120, 16, 10
	vectors := randomVectors(n+extra, dim, 7)
	a := buildIndex(t, vectors[:n], Params{})
	b := a.Clone()

	for i := n; i < n+extra; i++ {
		if err := a.Insert(i, vectors[i]); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(i, vectors[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.MaxLevel() != b.MaxLevel() {
		t.Fatalf("max levels diverged: %d vs %d", a.MaxLevel(), b.MaxLevel())
	}
	probes := randomVectors(25, dim, 3)
	if !sameResults(snapshotTopK(a, probes, k), snapshotTopK(b, probes, k)) {
		t.Fatal("original and clone diverged under an identical insert stream")
	}
}

// TestTopKAppendReusesDst: the append variant fills the caller's buffer
// and matches TopK exactly.
func TestTopKAppendReusesDst(t *testing.T) {
	const n, dim, k = 500, 16, 12
	vectors := randomVectors(n, dim, 5)
	ix := buildIndex(t, vectors, Params{})
	q := randomVectors(1, dim, 77)[0]

	want := ix.TopK(q, k, nil)
	buf := make([]Result, 0, k)
	got := ix.TopKAppend(q, k, nil, buf)
	if len(got) != len(want) {
		t.Fatalf("TopKAppend returned %d results, TopK %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: TopKAppend %+v vs TopK %+v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("TopKAppend did not use the caller's buffer despite sufficient capacity")
	}
}

// TestTopKAppendZeroAlloc guards the allocation-free query contract: with
// a warm scratch pool and a caller-owned result buffer, a search touches
// the heap zero times.
func TestTopKAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	const n, dim, k = 2000, 32, 10
	vectors := randomVectors(n, dim, 21)
	ix := buildIndex(t, vectors, Params{})
	q := randomVectors(1, dim, 8)[0]
	buf := make([]Result, 0, k)
	// Warm the scratch pool.
	buf = ix.TopKAppend(q, k, nil, buf)
	allocs := testing.AllocsPerRun(200, func() {
		buf = ix.TopKAppend(q, k, nil, buf)
	})
	if allocs != 0 {
		t.Fatalf("TopKAppend allocated %.2f times per query, want 0", allocs)
	}
}
