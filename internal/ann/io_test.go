package ann

import (
	"bytes"
	"math/rand"
	"testing"
)

func buildIOIndex(t testing.TB, n, dim int) (*Index, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ix := New(dim, Params{})
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
		if err := ix.Insert(i, v); err != nil {
			t.Fatal(err)
		}
	}
	return ix, vecs
}

func queryVec(rng *rand.Rand, dim int) []float64 {
	q := make([]float64, dim)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	return q
}

// TestGraphRoundTrip serialises an index (including nodes moved in place
// and tombstones from deletes) and checks the loaded copy answers every
// query with the same ids in the same order.
func TestGraphRoundTrip(t *testing.T) {
	const n, dim = 500, 16
	ix, vecs := buildIOIndex(t, n, dim)
	// Moves and deletes, so re-linked slots and tombstones are exercised.
	for i := 0; i < 40; i++ {
		if err := ix.Insert(i, vecs[(i+1)%n]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 120; i++ {
		ix.Delete(i)
	}

	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.Len() != ix.Len() || got.Deleted() != ix.Deleted() || got.MaxLevel() != ix.MaxLevel() {
		t.Fatalf("shape mismatch: len %d/%d deleted %d/%d maxLevel %d/%d",
			got.Len(), ix.Len(), got.Deleted(), ix.Deleted(), got.MaxLevel(), ix.MaxLevel())
	}
	if got.Params() != ix.Params() {
		t.Fatalf("params mismatch: %+v vs %+v", got.Params(), ix.Params())
	}
	rng := rand.New(rand.NewSource(99))
	for qi := 0; qi < 50; qi++ {
		q := queryVec(rng, dim)
		want := ix.TopK(q, 10, nil)
		have := got.TopK(q, 10, nil)
		if len(want) != len(have) {
			t.Fatalf("query %d: result length %d vs %d", qi, len(have), len(want))
		}
		for i := range want {
			if want[i].ID != have[i].ID {
				t.Fatalf("query %d rank %d: id %d vs %d", qi, i, have[i].ID, want[i].ID)
			}
			if d := want[i].Score - have[i].Score; d > 1e-5 || d < -1e-5 {
				t.Fatalf("query %d rank %d: score drift %g (float32 packing should stay below 1e-5)", qi, i, d)
			}
		}
	}
}

// TestGraphRoundTripInsertAfterLoad verifies the level RNG replay: the
// original index and its deserialised copy must evolve identically under
// the same subsequent inserts (same levels, same entry point, same
// answers).
func TestGraphRoundTripInsertAfterLoad(t *testing.T) {
	const n, dim = 300, 12
	ix, _ := buildIOIndex(t, n, dim)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for i := n; i < n+60; i++ {
		v := queryVec(rng, dim)
		if err := ix.Insert(i, v); err != nil {
			t.Fatal(err)
		}
		if err := got.Insert(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if got.MaxLevel() != ix.MaxLevel() {
		t.Fatalf("max level diverged after inserts: %d vs %d (RNG replay broken)", got.MaxLevel(), ix.MaxLevel())
	}
	for qi := 0; qi < 30; qi++ {
		q := queryVec(rng, dim)
		want := ix.TopK(q, 5, nil)
		have := got.TopK(q, 5, nil)
		for i := range want {
			if want[i].ID != have[i].ID {
				t.Fatalf("query %d rank %d: id %d vs %d after post-load inserts", qi, i, have[i].ID, want[i].ID)
			}
		}
	}
}

// TestGraphRoundTripEmpty covers the zero-node index.
func TestGraphRoundTripEmpty(t *testing.T) {
	ix := New(8, Params{})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.MaxLevel() != -1 {
		t.Fatalf("empty round trip: len %d maxLevel %d", got.Len(), got.MaxLevel())
	}
	if res := got.TopK(queryVec(rand.New(rand.NewSource(1)), 8), 3, nil); len(res) != 0 {
		t.Fatalf("empty index returned %d results", len(res))
	}
}

// TestGraphReadRejectsCorrupt feeds structurally broken graphs and
// expects errors, never panics.
func TestGraphReadRejectsCorrupt(t *testing.T) {
	ix, _ := buildIOIndex(t, 50, 8)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 3, 10, 20, len(valid) / 2, len(valid) - 1} {
			if _, err := Read(bytes.NewReader(valid[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte{}, valid...)
		bad[0] ^= 0xff
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupt magic accepted")
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte{}, valid...)
		bad[4] = 0xfe
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatal("wrong version accepted")
		}
	})
}
