package ann

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/retrodb/retro/internal/vec"
)

// recallAt10 measures recall@10 of ix against the brute-force answer over
// vectors (indexed by id).
func recallAt10(ix *Index, vectors, queries [][]float64) float64 {
	hits, total := 0, 0
	for _, q := range queries {
		want := map[int]bool{}
		for _, m := range bruteTopK(vectors, q, 10, nil) {
			want[m.ID] = true
		}
		for _, m := range ix.TopK(q, 10, nil) {
			if want[m.ID] {
				hits++
			}
		}
		total += len(want)
	}
	return float64(hits) / float64(total)
}

// checkGraph asserts the structural invariants an update must preserve:
// the slot count is what it was, nothing is tombstoned, and on every layer
// a node links neither to itself, nor twice to one node, nor to more nodes
// than the layer allows, nor to a node that does not reach that layer. It
// also checks the graph survives serialisation byte for byte.
func checkGraph(t *testing.T, ix *Index, wantSlots int) {
	t.Helper()
	if len(ix.nodes) != wantSlots || ix.Len() != wantSlots || ix.Deleted() != 0 {
		t.Fatalf("slots %d, live %d, deleted %d; want %d, %d, 0", len(ix.nodes), ix.Len(), ix.Deleted(), wantSlots, wantSlots)
	}
	if ix.quant != nil && (len(ix.qflat) != wantSlots*ix.dim || len(ix.qcorr) != wantSlots) {
		t.Fatalf("code arrays cover %d/%d slots, want %d", len(ix.qflat)/ix.dim, len(ix.qcorr), wantSlots)
	}
	for i := range ix.nodes {
		for l, layer := range ix.nodes[i].neighbors {
			maxConn := ix.params.M
			if l == 0 {
				maxConn *= 2
			}
			if len(layer) > maxConn {
				t.Fatalf("slot %d layer %d has %d links, cap %d", i, l, len(layer), maxConn)
			}
			for j, nb := range layer {
				if int(nb) == i {
					t.Fatalf("slot %d links to itself on layer %d", i, l)
				}
				if slices.Contains(layer[:j], nb) {
					t.Fatalf("slot %d links to %d twice on layer %d", i, nb, l)
				}
				if len(ix.nodes[nb].neighbors) <= l {
					t.Fatalf("slot %d layer %d links to %d, which stops at layer %d", i, l, nb, len(ix.nodes[nb].neighbors)-1)
				}
			}
		}
	}
	var first, second bytes.Buffer
	if _, err := ix.WriteTo(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := readIndex(bytes.NewReader(first.Bytes()), ix.f32, nil)
	if err != nil {
		t.Fatalf("updated graph does not load: %v", err)
	}
	if _, err := loaded.WriteTo(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("updated graph does not round-trip through WriteTo/Read")
	}
}

// propertySize cuts an update property — n ids, rounds that each end in
// a fresh build to compare against — to half the ids and two rounds under
// -short and under the race detector, where an index build costs ten
// times what it does otherwise.
func propertySize(n, rounds int) (int, int) {
	if testing.Short() || raceEnabled {
		return n / 2, 2
	}
	return n, rounds
}

// nudged returns v moved by about eps in 1 - cosine.
func nudged(rng *rand.Rand, v []float64, eps float64) []float64 {
	step := math.Sqrt(2*eps) * vec.Norm(v) / math.Sqrt(float64(len(v)))
	out := make([]float64, len(v))
	for j, x := range v {
		out[j] = x + step*rng.NormFloat64()
	}
	return out
}

// relinkWorlds are the index flavours every update property runs on: the
// float64 exact index and the float32 + SQ8 index the server runs, both
// with the default parameters.
var relinkWorlds = []struct {
	name string
	new  func(dim int, sample [][]float64) *Index
}{
	{"f64", func(dim int, _ [][]float64) *Index { return New(dim, Params{}) }},
	{"f32-sq8", func(dim int, sample [][]float64) *Index {
		ix := New32(dim, Params{})
		ix.TrainSQ8(len(sample), func(i int) []float64 { return sample[i] }, 0)
		return ix
	}},
}

func buildWorld(t testing.TB, mk func(int, [][]float64) *Index, vectors [][]float64) *Index {
	t.Helper()
	ix := mk(len(vectors[0]), vectors)
	for id, v := range vectors {
		if err := ix.Insert(id, v); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestRelinkSmallMovesKeepRecall: ten rounds in which every vector moves
// by 1e-6..1e-3 in 1 - cosine (what a delta repair does to its touched
// rows) leave a graph that serves the recall of one built fresh from the
// final vectors. Unclustered data, where recall is not saturated.
func TestRelinkSmallMovesKeepRecall(t *testing.T) {
	const dim = 32
	n, rounds := propertySize(1200, 10)
	for _, w := range relinkWorlds {
		t.Run(w.name, func(t *testing.T) {
			vectors := randomVectors(n, dim, 41)
			queries := randomVectors(100, dim, 42)
			ix := buildWorld(t, w.new, vectors)
			rng := rand.New(rand.NewSource(43))
			for r := 0; r < rounds; r++ {
				for id := range vectors {
					eps := math.Pow(10, -6+3*rng.Float64())
					vectors[id] = nudged(rng, vectors[id], eps)
					if err := ix.Insert(id, vectors[id]); err != nil {
						t.Fatal(err)
					}
				}
				checkGraph(t, ix, n)
				got, fresh := recallAt10(ix, vectors, queries), recallAt10(buildWorld(t, w.new, vectors), vectors, queries)
				t.Logf("round %d: recall@10 %.4f, fresh build %.4f", r, got, fresh)
				if got < fresh-0.01 {
					t.Fatalf("round %d: recall@10 %.4f fell more than 0.01 below a fresh build's %.4f", r, got, fresh)
				}
			}
		})
	}
}

// TestRelinkTeleportsKeepRecall: four rounds in which half the ids jump
// to unrelated positions. This is the case the far-move repair exists
// for: the neighbours a node leaves behind must not keep a dead-weight
// link in place of one into their own surroundings.
func TestRelinkTeleportsKeepRecall(t *testing.T) {
	const dim = 32
	n, rounds := propertySize(2000, 4)
	for _, w := range relinkWorlds {
		t.Run(w.name, func(t *testing.T) {
			vectors := randomVectors(n, dim, 51)
			queries := randomVectors(100, dim, 52)
			ix := buildWorld(t, w.new, vectors)
			rng := rand.New(rand.NewSource(53))
			for r := 0; r < rounds; r++ {
				for _, id := range rng.Perm(n)[:n/2] {
					for j := range vectors[id] {
						vectors[id][j] = rng.NormFloat64()
					}
					if err := ix.Insert(id, vectors[id]); err != nil {
						t.Fatal(err)
					}
				}
				checkGraph(t, ix, n)
				got, fresh := recallAt10(ix, vectors, queries), recallAt10(buildWorld(t, w.new, vectors), vectors, queries)
				t.Logf("round %d: recall@10 %.4f, fresh build %.4f", r, got, fresh)
				if got < fresh-0.01 {
					t.Fatalf("round %d: recall@10 %.4f fell more than 0.01 below a fresh build's %.4f", r, got, fresh)
				}
			}
		})
	}
}

// clusteredVectors draws n points from a 32-centre Gaussian mixture — the
// regime retrofitted embeddings live in.
func clusteredVectors(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := randomVectors(32, dim, seed+1000)
	out := make([][]float64, n)
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		v := make([]float64, dim)
		for j := range v {
			v[j] = c[j] + 0.25*rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// TestRelinkMovesEntryPoint: the entry point is the one node a re-link's
// own search starts from; moving it — alone on its top layer — must leave
// it linked and findable like any other.
func TestRelinkMovesEntryPoint(t *testing.T) {
	vectors := randomVectors(500, 16, 61)
	ix := buildIndex(t, vectors, Params{EfSearch: 128})
	id := ix.nodes[ix.entry].id
	vectors[id] = randomVectors(1, 16, 62)[0]
	if err := ix.Insert(id, vectors[id]); err != nil {
		t.Fatal(err)
	}
	checkGraph(t, ix, 500)
	if ix.nodes[ix.entry].id != id {
		t.Fatal("moving the entry point changed the entry point")
	}
	if top := ix.TopK(vectors[id], 1, nil); len(top) != 1 || top[0].ID != id {
		t.Fatalf("moved entry point not found at its new position: %+v", top)
	}
	if len(ix.nodes[ix.entry].neighbors[0]) == 0 {
		t.Fatal("moved entry point has no layer-0 links")
	}

	// A single-node index has nothing to link to and must not trip over
	// finding only itself.
	one := New(4, Params{})
	for i := 0; i < 2; i++ {
		if err := one.Insert(7, []float64{1, float64(i), 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	checkGraph(t, one, 1)
}

// unitOf normalises v the way Insert does.
func unitOf(v []float64) []float64 {
	n := vec.Norm(v)
	unit := make([]float64, len(v))
	for i, x := range v {
		unit[i] = x / n
	}
	return unit
}

// TestShrinkMatchesFullSelection: on a list that overflows by one, the
// lazy shrink keeps exactly the link set the full diversity selection
// keeps — on random geometry and on geometry full of exact ties
// (duplicated points, where pruning hinges on strict comparisons).
func TestShrinkMatchesFullSelection(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		p := Params{M: 2 + rng.Intn(8)}
		ix := New(dim, p)
		if trial%2 == 1 {
			ix = New32(dim, p)
		}
		maxConn := 2 * p.M
		// Slot 0 is the base; slots 1..maxConn+1 its overflowing list. Raw
		// nodes, no links: shrink only reads vectors.
		pts := randomVectors(maxConn+2, dim, int64(trial))
		if trial%3 == 0 {
			for i := 2; i < len(pts); i += 2 {
				pts[i] = pts[i-1] // exact duplicates: tied distances, zero gaps
			}
		}
		nbs := make([]int32, 0, maxConn+1)
		for i, v := range pts {
			ix.nodes = append(ix.nodes, node{id: i})
			ix.setVector(int32(i), unitOf(v))
			if i > 0 {
				nbs = append(nbs, int32(i))
			}
		}
		rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })

		want := ix.selectNeighbors(ix.candidatesFrom(0, nbs), maxConn)
		got := ix.shrink(0, nbs, maxConn)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (M=%d): lazy shrink kept %v, full selection keeps %v", trial, p.M, got, want)
		}
	}
}

// TestQuantizedLinksSelectedOnExactDistances is the scale-mixing
// regression test: on a quantized index the beam finds candidates on SQ8
// scores, but the links must be the ones selectNeighbors picks from those
// candidates under exact distances — the scale its diversity test
// compares them on — and each layer must hand the exactly nearest
// candidate down as the next entry point.
func TestQuantizedLinksSelectedOnExactDistances(t *testing.T) {
	const n, dim, extra = 1500, 24, 60
	vectors := clusteredVectors(n+extra, dim, 81)
	ix := New32(dim, Params{})
	ix.TrainSQ8(n, func(i int) []float64 { return vectors[i] }, 0)
	for id := 0; id < n; id++ {
		if err := ix.Insert(id, vectors[id]); err != nil {
			t.Fatal(err)
		}
	}
	differs := 0
	for id := n; id < n+extra; id++ {
		// Predict the links on a clone, so the real insert below sees the
		// same graph and draws the same level.
		probe := ix.Clone()
		if err := probe.Insert(id, vectors[id]); err != nil {
			t.Fatal(err)
		}
		slot := probe.slots[id]
		level := len(probe.nodes[slot].neighbors) - 1

		// The candidates link saw, from the reference walk on the codes.
		r := newReference(ix, unitOf(vectors[id]))
		if !r.onCodes {
			t.Fatal("query not quantized")
		}
		ep := r.descend(level)
		for l := min(level, ix.maxLevel); l >= 0; l-- {
			onCodes := slices.Clone(r.beam(ep, ix.params.EfConstruction, l))
			exact := slices.Clone(onCodes)
			for i := range exact {
				exact[i].dist = 1 - r.cosine(exact[i].slot)
			}
			slices.SortFunc(exact, byDist)
			want := ix.selectNeighbors(exact, ix.params.M)
			if got := probe.nodes[slot].neighbors[l]; !slices.Equal(got, want) {
				t.Fatalf("id %d layer %d: linked to %v, exact selection over the same candidates gives %v", id, l, got, want)
			}
			slices.SortFunc(onCodes, byDist)
			if mixed := ix.selectNeighbors(onCodes, ix.params.M); !slices.Equal(mixed, want) {
				differs++
			}
			ep = exact[0].slot
		}
		if err := ix.Insert(id, vectors[id]); err != nil {
			t.Fatal(err)
		}
	}
	if differs == 0 {
		t.Fatal("selection on SQ8 scores never differed from exact selection: the test cannot tell them apart")
	}
	t.Logf("selection on code-domain scores would have differed on %d layers", differs)
}

// TestBuildOnCodesMatchesBuildOnExact: a graph whose construction beam
// ran on SQ8 codes (TrainSQ8 before the build) serves the same recall as
// one built on exact distances and quantized afterwards.
func TestBuildOnCodesMatchesBuildOnExact(t *testing.T) {
	const n, dim = 4000, 48
	all := clusteredVectors(n+200, dim, 91)
	vectors, queries := all[:n], all[n:]

	onCodes := buildWorld(t, relinkWorlds[1].new, vectors)
	onExact := New32(dim, Params{})
	for id, v := range vectors {
		if err := onExact.Insert(id, v); err != nil {
			t.Fatal(err)
		}
	}
	onExact.QuantizeSQ8(0)

	if !slices.Equal(onCodes.quant.Scales(), onExact.quant.Scales()) {
		t.Fatal("TrainSQ8 before the build and QuantizeSQ8 after it trained different codebooks")
	}
	if !slices.Equal(onCodes.qflat, onExact.qflat) || !slices.Equal(onCodes.qcorr, onExact.qcorr) {
		t.Fatal("codes encoded during the build differ from codes encoded after it")
	}
	// A narrow beam with no over-fetch, so that recall measures the two
	// graphs and not the width of the search over them.
	for _, ix := range []*Index{onCodes, onExact} {
		ix.SetEfSearch(10)
		ix.SetRerank(1)
	}
	a, b := recallAt10(onCodes, vectors, queries), recallAt10(onExact, vectors, queries)
	t.Logf("recall@10: built on codes %.4f, built on exact distances %.4f", a, b)
	if math.Abs(a-b) > 0.005 {
		t.Fatalf("recall@10 built on codes %.4f vs built on exact %.4f: more than 0.005 apart", a, b)
	}
}

// sq8Worlds are the two quantized flavours, codebook trained on the rows
// before the build as the store does it.
var sq8Worlds = []struct {
	name string
	new  func(dim int, sample [][]float64) *Index
}{
	{"f64-sq8", func(dim int, sample [][]float64) *Index {
		ix := New(dim, Params{})
		ix.TrainSQ8(len(sample), func(i int) []float64 { return sample[i] }, 0)
		return ix
	}},
	relinkWorlds[1],
}

// encodedAs is the SQ8 code Insert stores for v: v unit-normalised, on
// an f32 index narrowed first.
func encodedAs(ix *Index, v []float64) []int8 {
	code := make([]int8, ix.dim)
	if ix.f32 {
		ix.quant.Encode32(code, vec.Narrow(make([]float32, ix.dim), unitOf(v)))
	} else {
		ix.quant.Encode(code, unitOf(v))
	}
	return code
}

func linksOf(t *testing.T, ix *Index) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := ix.WriteLinksTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestMoveWithinCodeKeepsLinks: on a quantized index, a move that leaves
// the node's SQ8 code as it was keeps every link in the graph as it was —
// the links-only encoding is byte-identical — while the node does take
// its new vector: the exact re-rank scores it at the new one.
func TestMoveWithinCodeKeepsLinks(t *testing.T) {
	const n, dim, tries = 1500, 24, 200
	for _, w := range sq8Worlds {
		t.Run(w.name, func(t *testing.T) {
			vectors := clusteredVectors(n, dim, 101)
			ix := buildWorld(t, w.new, vectors)
			rng := rand.New(rand.NewSource(102))
			type move struct {
				id       int
				old, new []float64
			}
			var moves []move
			for _, id := range rng.Perm(n)[:tries] {
				to := nudged(rng, vectors[id], math.Pow(10, -9+2*rng.Float64()))
				if slices.Equal(encodedAs(ix, to), ix.code(ix.slots[id])) {
					moves = append(moves, move{id, vectors[id], to})
				}
			}
			if len(moves) < tries/2 {
				t.Fatalf("only %d of %d tiny moves keep their code: the test moves too far", len(moves), tries)
			}

			before, linked := linksOf(t, ix), ix.Linked()
			for _, m := range moves {
				if err := ix.Insert(m.id, m.new); err != nil {
					t.Fatal(err)
				}
				vectors[m.id] = m.new
			}
			if !bytes.Equal(linksOf(t, ix), before) {
				t.Fatalf("%d moves within the code changed the graph's links", len(moves))
			}
			if ix.Linked() != linked {
				t.Fatalf("%d moves within the code linked %d nodes, want 0", len(moves), ix.Linked()-linked)
			}
			checkGraph(t, ix, n)

			// Query each moved node's old position: the re-rank must score
			// the node at its new vector, not the one it left.
			stale := 0
			for _, m := range moves {
				nd := &ix.nodes[ix.slots[m.id]]
				q := unitOf(m.old)
				want := vec.Dot(q, unitOf(m.new))
				if ix.f32 {
					q32 := vec.Narrow(make([]float32, dim), q)
					want = vec.Dot32(q32, nd.vec32)
					if want == vec.Dot32(q32, vec.Narrow(make([]float32, dim), unitOf(m.old))) {
						stale++ // the move is below float32 resolution here
					}
				}
				hits := ix.TopK(m.old, 10, nil)
				i := slices.IndexFunc(hits, func(r Result) bool { return r.ID == m.id })
				if i < 0 {
					t.Fatalf("id %d not among the 10 nearest to its old position: %+v", m.id, hits)
				}
				if hits[i].Score != want {
					t.Fatalf("id %d scored %.17g, want %.17g: the exact re-rank does not see the new vector", m.id, hits[i].Score, want)
				}
			}
			if stale == len(moves) {
				t.Fatal("no move changed a stored vector: the score check proves nothing")
			}
			t.Logf("%d of %d tiny moves kept their code and their links", len(moves), tries)
		})
	}
}

// TestMoveAcrossCodeRelinks: a move that changes the node's code is
// re-linked, on both quantized flavours; on an unquantized index every
// move is, however small.
func TestMoveAcrossCodeRelinks(t *testing.T) {
	const n, dim = 800, 24
	vectors := clusteredVectors(n, dim, 111)
	for _, w := range append(slices.Clone(sq8Worlds), relinkWorlds[0]) {
		t.Run(w.name, func(t *testing.T) {
			vs := slices.Clone(vectors)
			ix := buildWorld(t, w.new, vs)
			rng := rand.New(rand.NewSource(112))
			recoded := 0
			for _, id := range rng.Perm(n)[:100] {
				eps := 1e-2
				if ix.quant == nil {
					eps = 1e-9
				}
				to := nudged(rng, vs[id], eps)
				slot := ix.slots[id]
				changes := ix.quant == nil || !slices.Equal(encodedAs(ix, to), ix.code(slot))
				if !changes {
					continue
				}
				recoded++
				linked := ix.Linked()
				if err := ix.Insert(id, to); err != nil {
					t.Fatal(err)
				}
				vs[id] = to
				if got := ix.Linked() - linked; got != 1 {
					t.Fatalf("id %d: a move that changed the code linked %d nodes, want 1", id, got)
				}
				if ix.quant != nil && !slices.Equal(ix.code(slot), encodedAs(ix, to)) {
					t.Fatalf("id %d: stored code is not the encoding of the new vector", id)
				}
			}
			if recoded == 0 {
				t.Fatal("no move changed a code: the test does not reach the re-link")
			}
			checkGraph(t, ix, n)
		})
	}
}

// TestRelinkSubCodeMovesKeepRecall: ten rounds in which every vector
// moves by 1e-9..1e-6 in 1 - cosine — most moves on a quantized index then
// stay within their code and keep their links — leave a graph that serves
// the recall of one built fresh from the final vectors, and every stored
// code is the encoding of its node's current vector: nothing drifts
// behind the gate.
func TestRelinkSubCodeMovesKeepRecall(t *testing.T) {
	const dim = 32
	n, rounds := propertySize(1200, 10)
	for _, w := range relinkWorlds {
		t.Run(w.name, func(t *testing.T) {
			vectors := randomVectors(n, dim, 121)
			queries := randomVectors(100, dim, 122)
			ix := buildWorld(t, w.new, vectors)
			rng := rand.New(rand.NewSource(123))
			linked := ix.Linked()
			for r := 0; r < rounds; r++ {
				for id := range vectors {
					vectors[id] = nudged(rng, vectors[id], math.Pow(10, -9+3*rng.Float64()))
					if err := ix.Insert(id, vectors[id]); err != nil {
						t.Fatal(err)
					}
				}
				checkGraph(t, ix, n)
				if ix.quant != nil {
					for id, v := range vectors {
						if !slices.Equal(ix.code(ix.slots[id]), encodedAs(ix, v)) {
							t.Fatalf("round %d: id %d's stored code is not the encoding of its current vector", r, id)
						}
					}
				}
				got, fresh := recallAt10(ix, vectors, queries), recallAt10(buildWorld(t, w.new, vectors), vectors, queries)
				t.Logf("round %d: recall@10 %.4f, fresh build %.4f", r, got, fresh)
				if got < fresh-0.01 {
					t.Fatalf("round %d: recall@10 %.4f fell more than 0.01 below a fresh build's %.4f", r, got, fresh)
				}
			}
			t.Logf("%d of %d moves re-linked", ix.Linked()-linked, n*rounds)
			if ix.quant != nil && ix.Linked()-linked == uint64(n*rounds) {
				t.Fatal("every sub-code move re-linked: the gate never held")
			}
		})
	}
}
