package ann

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/retrodb/retro/internal/vec"
)

// randomVectors draws n unit-scale Gaussian vectors deterministically.
func randomVectors(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// bruteTopK is the exact reference: cosine scores sorted descending,
// ties by ascending id.
func bruteTopK(vectors [][]float64, q []float64, k int, skip func(int) bool) []Result {
	qn := vec.Norm(q)
	var all []Result
	for id, v := range vectors {
		if skip != nil && skip(id) {
			continue
		}
		n := vec.Norm(v)
		if n == 0 {
			continue
		}
		all = append(all, Result{ID: id, Score: vec.Dot(q, v) / (qn * n)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func buildIndex(t testing.TB, vectors [][]float64, p Params) *Index {
	t.Helper()
	ix := New(len(vectors[0]), p)
	for id, v := range vectors {
		if err := ix.Insert(id, v); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestRecallAt10 is the acceptance fixture: recall@10 >= 0.95 against
// brute force on 10k vectors with default parameters.
func TestRecallAt10(t *testing.T) {
	const (
		n, dim, queries, k = 10_000, 32, 100, 10
	)
	vectors := randomVectors(n, dim, 7)
	ix := buildIndex(t, vectors, Params{})
	qs := randomVectors(queries, dim, 11)
	hits, total := 0, 0
	for _, q := range qs {
		exact := bruteTopK(vectors, q, k, nil)
		approx := ix.TopK(q, k, nil)
		want := map[int]bool{}
		for _, m := range exact {
			want[m.ID] = true
		}
		for _, m := range approx {
			if want[m.ID] {
				hits++
			}
		}
		total += len(exact)
	}
	recall := float64(hits) / float64(total)
	t.Logf("recall@%d over %d queries on %d vectors: %.4f", k, queries, n, recall)
	if recall < 0.95 {
		t.Fatalf("recall@%d = %.4f, want >= 0.95", k, recall)
	}
}

// TestSmallGraphExact checks that on a small set with a wide beam the
// index returns exactly the brute-force answer, ordering included.
func TestSmallGraphExact(t *testing.T) {
	vectors := randomVectors(200, 16, 3)
	ix := buildIndex(t, vectors, Params{EfSearch: 200})
	for qi, q := range randomVectors(20, 16, 5) {
		exact := bruteTopK(vectors, q, 5, nil)
		got := ix.TopK(q, 5, nil)
		if len(got) != len(exact) {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), len(exact))
		}
		for i := range got {
			if got[i].ID != exact[i].ID {
				t.Fatalf("query %d rank %d: got id %d, want %d", qi, i, got[i].ID, exact[i].ID)
			}
		}
	}
}

func TestDeleteExcludesFromResults(t *testing.T) {
	vectors := randomVectors(500, 16, 9)
	ix := buildIndex(t, vectors, Params{EfSearch: 128})
	q := vectors[42]
	top := ix.TopK(q, 1, nil)
	if len(top) != 1 || top[0].ID != 42 {
		t.Fatalf("self query should return id 42, got %+v", top)
	}
	if !ix.Delete(42) {
		t.Fatal("Delete(42) returned false")
	}
	if ix.Delete(42) {
		t.Fatal("second Delete(42) returned true")
	}
	if ix.Contains(42) {
		t.Fatal("Contains(42) after delete")
	}
	if ix.Len() != 499 {
		t.Fatalf("Len = %d after delete, want 499", ix.Len())
	}
	for _, m := range ix.TopK(q, 10, nil) {
		if m.ID == 42 {
			t.Fatal("deleted id 42 still returned")
		}
	}
}

func TestFilterCallback(t *testing.T) {
	vectors := randomVectors(500, 16, 13)
	ix := buildIndex(t, vectors, Params{EfSearch: 128})
	q := vectors[7]
	got := ix.TopK(q, 10, func(id int) bool { return id%2 == 0 })
	if len(got) == 0 {
		t.Fatal("no results with filter")
	}
	for _, m := range got {
		if m.ID%2 == 0 {
			t.Fatalf("filtered id %d returned", m.ID)
		}
	}
}

func TestInsertReplacesVector(t *testing.T) {
	vectors := randomVectors(300, 8, 17)
	ix := buildIndex(t, vectors, Params{EfSearch: 64})
	// Move id 5 on top of id 6's vector: a query at that point must now
	// find id 5 with similarity ~1.
	if err := ix.Insert(5, vectors[6]); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 300 {
		t.Fatalf("Len = %d after replace, want 300", ix.Len())
	}
	top := ix.TopK(vectors[6], 2, nil)
	found := false
	for _, m := range top {
		if m.ID == 5 && m.Score > 0.999 {
			found = true
		}
	}
	if !found {
		t.Fatalf("replaced vector not found at new position: %+v", top)
	}
}

func TestDeterministicBuild(t *testing.T) {
	vectors := randomVectors(400, 16, 21)
	a := buildIndex(t, vectors, Params{})
	b := buildIndex(t, vectors, Params{})
	for _, q := range randomVectors(10, 16, 23) {
		ra := a.TopK(q, 5, nil)
		rb := b.TopK(q, 5, nil)
		if len(ra) != len(rb) {
			t.Fatal("result length differs between identical builds")
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("rank %d differs: %+v vs %+v", i, ra[i], rb[i])
			}
		}
	}
}

// TestDegenerateMClamped: M=1 would make the level multiplier infinite
// (1/ln 1); the constructor must fall back to the default instead of
// panicking on the first insert.
func TestDegenerateMClamped(t *testing.T) {
	ix := New(4, Params{M: 1})
	if got := ix.Params().M; got != DefaultParams().M {
		t.Fatalf("M=1 not clamped: got %d", got)
	}
	for i, v := range randomVectors(50, 4, 31) {
		if err := ix.Insert(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.TopK(randomVectors(1, 4, 33)[0], 5, nil); len(got) != 5 {
		t.Fatalf("got %d results, want 5", len(got))
	}
}

func TestInsertErrors(t *testing.T) {
	ix := New(4, Params{})
	if err := ix.Insert(0, []float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	if err := ix.Insert(0, []float64{0, 0, 0, 0}); err == nil {
		t.Fatal("zero vector not rejected")
	}
	// Vectors whose norm is not finite: a NaN or infinite component, or
	// finite components too large to square.
	nonFinite := [][]float64{
		{math.NaN(), 1, 0, 0},
		{math.Inf(1), 0, 0, 0},
		{1, math.Inf(-1), 0, 0},
		{1e200, 1e200, 0, 0},
	}
	for _, v := range nonFinite {
		if err := ix.Insert(0, v); err == nil {
			t.Fatalf("non-finite vector %v not rejected", v)
		}
	}
	if got := ix.TopK([]float64{1, 0, 0, 0}, 3, nil); got != nil {
		t.Fatalf("empty index returned %+v", got)
	}

	// A held node is not moved to a non-finite vector either: the
	// rejection leaves its vector, code and links as they were.
	q := New(4, Params{})
	q.TrainSQ8(2, func(i int) []float64 { return []float64{1, float64(i), 0, 0} }, 0)
	for id := 0; id < 2; id++ {
		if err := q.Insert(id, []float64{1, float64(id), 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after bytes.Buffer
	if _, err := q.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	if _, err := q.WriteQuantTo(&before); err != nil {
		t.Fatal(err)
	}
	for _, v := range nonFinite {
		if err := q.Insert(1, v); err == nil {
			t.Fatalf("move to non-finite vector %v not rejected", v)
		}
	}
	if _, err := q.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if _, err := q.WriteQuantTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("a rejected move changed the index")
	}
}
