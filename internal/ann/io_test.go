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

// linksIndex builds a float32 or float64 index with moves and tombstones
// and returns it with the row each live id was last inserted with.
func linksIndex(t testing.TB, f32, quantized bool) (*Index, map[int][]float64) {
	t.Helper()
	const n, dim = 300, 12
	rng := rand.New(rand.NewSource(11))
	ix := New(dim, Params{})
	if f32 {
		ix = New32(dim, Params{})
	}
	rows := make(map[int][]float64, n)
	if quantized {
		pre := make([][]float64, n)
		for i := range pre {
			pre[i] = queryVec(rng, dim)
		}
		ix.TrainSQ8(n, func(i int) []float64 { return pre[i] }, 4)
		for i, v := range pre {
			rows[i] = v
		}
	} else {
		for i := 0; i < n; i++ {
			rows[i] = queryVec(rng, dim)
		}
	}
	for i := 0; i < n; i++ {
		if err := ix.Insert(i, rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		rows[i] = queryVec(rng, dim)
		if err := ix.Insert(i, rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 200; i < 210; i++ {
		ix.Delete(i)
		delete(rows, i)
	}
	return ix, rows
}

// fullBytes is the full encoding of an index plus its SQ8 sidecar.
func fullBytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if ix.Quantized() {
		if _, err := ix.WriteQuantTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestLinksRoundTrip: an index read back from its links over the rows it
// was built on is the written index — same vectors, codes, links, entry
// point and level generator — so its full encoding is byte-identical and
// later inserts evolve both the same way. A float64 index with tombstones
// is left out of the quantized case: its tombstones come back float32-
// rounded, and their codes with them.
func TestLinksRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name           string
		f32, quantized bool
	}{{"f64", false, false}, {"f32", true, false}, {"f32-sq8", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			ix, rows := linksIndex(t, tc.f32, tc.quantized)
			var links bytes.Buffer
			if _, err := ix.WriteLinksTo(&links); err != nil {
				t.Fatal(err)
			}
			got, err := ReadLinks(bytes.NewReader(links.Bytes()), tc.f32, func(id int) []float64 { return rows[id] })
			if err != nil {
				t.Fatal(err)
			}
			want := fullBytes(t, ix)
			if !bytes.Equal(fullBytes(t, got), want) {
				t.Fatal("index read from its links differs from the written one")
			}
			if links.Len() >= len(want) {
				t.Fatalf("links encoding is %d bytes, the full one %d", links.Len(), len(want))
			}
			rng := rand.New(rand.NewSource(5))
			for i := 1000; i < 1020; i++ {
				v := queryVec(rng, ix.Dim())
				if err := ix.Insert(i, v); err != nil {
					t.Fatal(err)
				}
				if err := got.Insert(i, v); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(fullBytes(t, got), fullBytes(t, ix)) {
				t.Fatal("inserts after ReadLinks diverged from the written index")
			}
		})
	}
}

// TestRelabel renames ids without touching the graph: the relabelled
// index answers every query with the renamed ids in the same order, and
// a map that loses or merges ids is refused with the index untouched.
func TestRelabel(t *testing.T) {
	ix, _ := linksIndex(t, true, true)
	before := fullBytes(t, ix)
	if err := ix.Relabel(func(old int) (int, bool) { return 0, true }); err == nil {
		t.Fatal("relabel merging every id accepted")
	}
	if err := ix.Relabel(func(old int) (int, bool) { return old, old != 7 }); err == nil {
		t.Fatal("relabel losing an id accepted")
	}
	if !bytes.Equal(fullBytes(t, ix), before) {
		t.Fatal("a refused relabel changed the index")
	}
	cp := ix.Clone()
	if err := cp.Relabel(func(old int) (int, bool) { return 10_000 - old, true }); err != nil {
		t.Fatal(err)
	}
	if cp.Len() != ix.Len() || cp.Deleted() != ix.Deleted() {
		t.Fatalf("relabel changed the shape: %d/%d live, %d/%d deleted", cp.Len(), ix.Len(), cp.Deleted(), ix.Deleted())
	}
	rng := rand.New(rand.NewSource(8))
	for qi := 0; qi < 20; qi++ {
		q := queryVec(rng, ix.Dim())
		want, have := ix.TopK(q, 10, nil), cp.TopK(q, 10, nil)
		for i := range want {
			if have[i].ID != 10_000-want[i].ID || have[i].Score != want[i].Score {
				t.Fatalf("query %d rank %d: %+v, want id %d score %v", qi, i, have[i], 10_000-want[i].ID, want[i].Score)
			}
		}
	}
	if !bytes.Equal(fullBytes(t, ix), before) {
		t.Fatal("relabelling a clone changed the original")
	}
}

// TestReadLinksRejectsCorrupt: links that leave the graph or skip a
// layer, a bad entry point, a missing or unusable row and a truncated or
// mislabelled stream are errors, never panics.
func TestReadLinksRejectsCorrupt(t *testing.T) {
	ix, rows := linksIndex(t, false, true)
	row := func(id int) []float64 { return rows[id] }
	encode := func(mutate func(cp *Index)) []byte {
		cp := ix.Clone()
		mutate(cp)
		var buf bytes.Buffer
		if _, err := cp.WriteLinksTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := encode(func(*Index) {})
	if _, err := ReadLinks(bytes.NewReader(valid), false, row); err != nil {
		t.Fatalf("valid links refused: %v", err)
	}
	top := int32(-1) // a slot on layer 1 or above
	for i := range ix.nodes {
		if len(ix.nodes[i].neighbors) > 1 {
			top = int32(i)
			break
		}
	}
	low := int32(-1) // a slot on layer 0 only
	for i := range ix.nodes {
		if len(ix.nodes[i].neighbors) == 1 {
			low = int32(i)
			break
		}
	}
	if top < 0 || low < 0 {
		t.Fatal("fixture has no multi-layer or single-layer node")
	}
	cases := map[string][]byte{
		"link-out-of-range":  encode(func(cp *Index) { cp.nodes[0].neighbors[0] = []int32{int32(len(cp.nodes))} }),
		"negative-link":      encode(func(cp *Index) { cp.nodes[0].neighbors[0] = []int32{-1} }),
		"layer-violation":    encode(func(cp *Index) { cp.nodes[top].neighbors[1] = []int32{low} }),
		"entry-out-of-range": encode(func(cp *Index) { cp.entry = int32(len(cp.nodes)) }),
		"entry-below-top":    encode(func(cp *Index) { cp.entry = low }),
		"no-layers":          encode(func(cp *Index) { cp.nodes[3].neighbors = nil }),
		"bad-magic":          append([]byte("RANN"), valid[4:]...),
		"truncated":          valid[:len(valid)-1],
		"bad-trailer":        append(append([]byte{}, valid[:len(valid)-8*ix.dim-5]...), 2),
	}
	for name, data := range cases {
		if _, err := ReadLinks(bytes.NewReader(data), false, row); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for name, bad := range map[string]func(int) []float64{
		"missing-row": func(id int) []float64 {
			if id == 5 {
				return nil
			}
			return rows[id]
		},
		"zero-row":  func(int) []float64 { return make([]float64, ix.dim) },
		"short-row": func(int) []float64 { return []float64{1} },
	} {
		if _, err := ReadLinks(bytes.NewReader(valid), false, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := ReadLinks(bytes.NewReader(valid), false, nil); err == nil {
		t.Error("nil row source accepted")
	}
}
