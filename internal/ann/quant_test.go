package ann

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/retrodb/retro/internal/vec"
)

// quantWorld builds an index over clustered unit-ish vectors (the regime
// retrofitted embeddings live in) plus a query set drawn from the same
// mixture.
func quantWorld(t testing.TB, n, dim int, seed int64) (*Index, [][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 32)
	for ci := range centers {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		centers[ci] = c
	}
	point := func() []float64 {
		c := centers[rng.Intn(len(centers))]
		v := make([]float64, dim)
		for j := range v {
			v[j] = c[j] + 0.25*rng.NormFloat64()
		}
		return v
	}
	ix := New(dim, Params{})
	vectors := make([][]float64, n)
	for i := 0; i < n; i++ {
		vectors[i] = point()
		if err := ix.Insert(i, vectors[i]); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([][]float64, 64)
	for qi := range queries {
		queries[qi] = point()
	}
	return ix, vectors, queries
}

// exactTop10 is the brute-force reference ordering.
func exactTop10(vectors [][]float64, q []float64, k int) []int {
	type scored struct {
		id    int
		score float64
	}
	qn := vec.Norm(q)
	all := make([]scored, len(vectors))
	for i, v := range vectors {
		all[i] = scored{i, vec.Dot(q, v) / (qn * vec.Norm(v))}
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].score > all[best].score ||
				(all[j].score == all[best].score && all[j].id < all[best].id) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	ids := make([]int, k)
	for i := range ids {
		ids[i] = all[i].id
	}
	return ids
}

func TestQuantizedTopKRecall(t *testing.T) {
	ix, vectors, queries := quantWorld(t, 3000, 64, 1)
	ix.QuantizeSQ8(0)
	if !ix.Quantized() || ix.Rerank() != DefaultRerank {
		t.Fatalf("QuantizeSQ8: quantized=%v rerank=%d", ix.Quantized(), ix.Rerank())
	}
	hits, total := 0, 0
	for _, q := range queries {
		want := map[int]bool{}
		for _, id := range exactTop10(vectors, q, 10) {
			want[id] = true
		}
		for _, r := range ix.TopK(q, 10, nil) {
			if want[r.ID] {
				hits++
			}
		}
		total += 10
	}
	if recall := float64(hits) / float64(total); recall < 0.95 {
		t.Fatalf("quantized recall@10 = %.3f, want >= 0.95", recall)
	}
}

// TestPropertyQuantizedTopOneMatchesExact: with exact re-ranking, the
// quantized path must return the same top result as the exact HNSW path
// for >= 99% of random queries (the re-rank makes ordering among the
// fetched candidates exact, so mismatches can only come from the
// candidate beam missing the winner entirely).
func TestPropertyQuantizedTopOneMatchesExact(t *testing.T) {
	ixq, _, _ := quantWorld(t, 4000, 48, 2)
	ixe, _, queries := quantWorld(t, 4000, 48, 2) // identical build (same seed)
	ixq.QuantizeSQ8(4)

	rng := rand.New(rand.NewSource(9))
	const numQueries = 300
	match := 0
	for qi := 0; qi < numQueries; qi++ {
		q := make([]float64, 48)
		base := queries[rng.Intn(len(queries))]
		for j := range q {
			q[j] = base[j] + 0.05*rng.NormFloat64()
		}
		rq := ixq.TopK(q, 10, nil)
		re := ixe.TopK(q, 10, nil)
		if len(rq) == 0 || len(re) == 0 {
			t.Fatal("empty result")
		}
		if rq[0].ID == re[0].ID {
			match++
		}
	}
	if frac := float64(match) / numQueries; frac < 0.99 {
		t.Fatalf("quantized top-1 matched exact for %.3f of queries, want >= 0.99", frac)
	}
}

// TestQuantizedScoresAreExact: returned scores come from the float64
// re-ranking pass, not the approximate code-domain kernel, so they must
// equal the exact path's cosine for the same id bit-for-bit.
func TestQuantizedScoresAreExact(t *testing.T) {
	ixq, _, queries := quantWorld(t, 2000, 32, 3)
	exact := map[int]float64{}
	q := queries[0]
	for _, r := range ixq.TopK(q, 20, nil) {
		exact[r.ID] = r.Score
	}
	ixq.QuantizeSQ8(8)
	for _, r := range ixq.TopK(q, 20, nil) {
		if want, ok := exact[r.ID]; ok && r.Score != want {
			t.Fatalf("id %d: quantized score %v != exact score %v", r.ID, r.Score, want)
		}
	}
}

func TestQuantizedInsertDeleteMaintenance(t *testing.T) {
	ix, _, _ := quantWorld(t, 500, 16, 4)
	ix.QuantizeSQ8(4)
	// A vector inserted after quantization must be encoded and findable.
	probe := make([]float64, 16)
	probe[3] = 1
	if err := ix.Insert(9999, probe); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ix.TopK(probe, 5, nil) {
		if r.ID == 9999 {
			found = true
		}
	}
	if !found {
		t.Fatal("post-quantization insert not returned")
	}
	if !ix.Delete(9999) {
		t.Fatal("delete failed")
	}
	for _, r := range ix.TopK(probe, 5, nil) {
		if r.ID == 9999 {
			t.Fatal("tombstoned id returned from quantized TopK")
		}
	}
}

// TestQuantizedCloneSharesCodesSafely: a clone of a quantized index owns
// its codes. Moving nodes on the clone re-encodes them in place, in slots
// the two indexes have in common, and must leave the original's code
// bytes, corrections, vectors, adjacency and answers bit-identical.
func TestQuantizedCloneSharesCodesSafely(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		ix, vectors, queries := quantWorld(t, 800, 16, 5)
		if f32 {
			ix32 := New32(16, Params{})
			for id, v := range vectors {
				if err := ix32.Insert(id, v); err != nil {
					t.Fatal(err)
				}
			}
			ix = ix32
		}
		ix.QuantizeSQ8(4)
		before, state := snapshotTopK(ix, queries, 10), captureState(ix)
		cp := ix.Clone()
		if !cp.Quantized() || cp.Rerank() != ix.Rerank() {
			t.Fatal("clone dropped quantization state")
		}
		if len(cp.qflat) > 0 && &cp.qflat[0] == &ix.qflat[0] {
			t.Fatal("clone shares the original's code array")
		}
		if !sameResults(before, snapshotTopK(cp, queries, 10)) {
			t.Fatal("clone answers differently from the original")
		}
		// Mutating the clone must not change the original: appended nodes,
		// then moves near and far of nodes both sides hold.
		v := make([]float64, 16)
		v[0] = 1
		for i := 0; i < 50; i++ {
			if err := cp.Insert(10000+i, v); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(15))
		for id := 0; id < 200; id++ {
			to := nudged(rng, vectors[id], 1e-4)
			if id%4 == 0 {
				to = vectors[799-id]
			}
			if err := cp.Insert(id, to); err != nil {
				t.Fatal(err)
			}
		}
		if cp.Deleted() != 0 || len(cp.nodes) != 850 {
			t.Fatalf("moves on the clone left %d tombstones and %d slots, want 0 and 850", cp.Deleted(), len(cp.nodes))
		}
		if !captureState(ix).equal(state) {
			t.Fatalf("f32=%v: moves on a clone changed the original's codes, corrections, vectors or adjacency", f32)
		}
		if !sameResults(before, snapshotTopK(ix, queries, 10)) {
			t.Fatalf("f32=%v: moves on a clone changed the original's answers", f32)
		}
		// The clone's own codes follow its moves.
		want := make([]int8, 16)
		for id := 0; id < 200; id++ {
			slot := cp.slots[id]
			corr := cp.encode(want, &cp.nodes[slot])
			if !slices.Equal(cp.code(slot), want) || cp.qcorr[slot] != corr {
				t.Fatalf("f32=%v: id %d moved but its code was not re-encoded", f32, id)
			}
		}
	}
}

func TestDisableQuantRestoresExactTraversal(t *testing.T) {
	ix, _, queries := quantWorld(t, 600, 16, 6)
	exact := ix.TopK(queries[1], 10, nil)
	ix.QuantizeSQ8(4)
	ix.DisableQuant()
	if ix.Quantized() || ix.Rerank() != 0 {
		t.Fatal("DisableQuant left state behind")
	}
	got := ix.TopK(queries[1], 10, nil)
	for i := range exact {
		if got[i] != exact[i] {
			t.Fatalf("rank %d after disable: %+v, want %+v", i, got[i], exact[i])
		}
	}
}

func TestSetRerank(t *testing.T) {
	ix, _, _ := quantWorld(t, 300, 8, 7)
	ix.SetRerank(9) // unquantized: ignored
	if ix.Rerank() != 0 {
		t.Fatal("SetRerank applied to unquantized index")
	}
	ix.QuantizeSQ8(4)
	ix.SetRerank(9)
	if ix.Rerank() != 9 {
		t.Fatalf("rerank = %d, want 9", ix.Rerank())
	}
	ix.SetRerank(0) // ignored
	if ix.Rerank() != 9 {
		t.Fatal("non-positive rerank applied")
	}
}

// TestQuantSidecarRoundTrip: graph + sidecar serialise, load into a
// fresh graph, answer identically, and re-serialise byte-identically.
func TestQuantSidecarRoundTrip(t *testing.T) {
	ix, _, queries := quantWorld(t, 1200, 24, 8)
	ix.QuantizeSQ8(6)

	var graph, sidecar bytes.Buffer
	if _, err := ix.WriteTo(&graph); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteQuantTo(&sidecar); err != nil {
		t.Fatal(err)
	}

	loaded, err := Read(bytes.NewReader(graph.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.ReadQuantInto(bytes.NewReader(sidecar.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !loaded.Quantized() || loaded.Rerank() != 6 {
		t.Fatalf("loaded: quantized=%v rerank=%d", loaded.Quantized(), loaded.Rerank())
	}

	for _, q := range queries[:8] {
		want := ix.TopK(q, 10, nil)
		got := loaded.TopK(q, 10, nil)
		if len(want) != len(got) {
			t.Fatalf("result lengths differ: %d vs %d", len(want), len(got))
		}
		for i := range want {
			if want[i].ID != got[i].ID {
				t.Fatalf("rank %d: loaded id %d, want %d", i, got[i].ID, want[i].ID)
			}
		}
	}

	var resaved bytes.Buffer
	if _, err := loaded.WriteQuantTo(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sidecar.Bytes(), resaved.Bytes()) {
		t.Fatal("re-saved quant sidecar is not byte-identical")
	}

	dim, rerank, err := ReadQuantHeader(bytes.NewReader(sidecar.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dim != 24 || rerank != 6 {
		t.Fatalf("ReadQuantHeader = (%d, %d), want (24, 6)", dim, rerank)
	}
}

func TestQuantSidecarRejectsMalformed(t *testing.T) {
	ix, _, _ := quantWorld(t, 100, 8, 9)
	ix.QuantizeSQ8(4)
	var sidecar bytes.Buffer
	if _, err := ix.WriteQuantTo(&sidecar); err != nil {
		t.Fatal(err)
	}
	raw := sidecar.Bytes()

	cases := map[string][]byte{
		"bad magic":  append([]byte("XXXX"), raw[4:]...),
		"truncation": raw[:len(raw)/2],
	}
	for name, corrupt := range cases {
		fresh, _, _ := quantWorld(t, 100, 8, 9)
		if err := fresh.ReadQuantInto(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}

	// Node-count mismatch: a sidecar from a different graph.
	other, _, _ := quantWorld(t, 50, 8, 10)
	if err := other.ReadQuantInto(bytes.NewReader(raw)); err == nil {
		t.Fatal("sidecar for a different graph accepted")
	}

	// Unquantized index refuses to serialise a sidecar.
	plain, _, _ := quantWorld(t, 20, 8, 11)
	if _, err := plain.WriteQuantTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteQuantTo succeeded on an unquantized index")
	}
}
