package ann

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/retrodb/retro/internal/cpu"
)

// indexGolden holds one line per flavour of TestGoldenIndex: the flavour
// name, then SHA-256 prefixes of the model the index holds and of the
// graph it built over it and answered from.
var indexGolden = filepath.Join("testdata", "golden", "index.txt")

// goldenFlavours are the four index flavours: float64 or float32 nodes,
// traversed on exact distances or on SQ8 codes trained before the build.
var goldenFlavours = []struct {
	name     string
	f32, sq8 bool
}{
	{"f64", false, false},
	{"f32", true, false},
	{"f64-sq8", false, true},
	{"f32-sq8", true, true},
}

// TestGoldenIndex pins the index's output itself, where the other tests
// check relations (batch against loop, the engine against the reference
// walk, recall against a fresh build). In each flavour it builds 3000
// clustered vectors of 48 dims, moves 1500 of them in place by 1e-6..1e-1
// in 1 - cosine, and runs 300 queries once with no skip and once skipping
// odd ids. It records two columns: the model (every slot's id and vector
// bits, and on SQ8 its code and correction) and the graph (the links-only
// encoding, every result's id and score bits, and each query's Hops,
// Nodes, Reranked and Quantized). A change to how nodes are linked moves
// only the graph column; the model column proves the vectors and codes
// stayed put. A change that means to leave the program as it is leaves
// testdata/golden/index.txt byte-identical; one that changes
// numbers on purpose regenerates it with
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenIndex ./internal/ann
//
// and says which lines moved and why.
func TestGoldenIndex(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the hashes are recorded on amd64: elsewhere Go may fuse multiply-adds into FMAs and round differently")
	}
	// The f64 dot kernels agree across SIMD levels only within a
	// tolerance, so the golden run is pinned to the scalar kernels.
	defer cpu.SetLevel(cpu.Active())
	cpu.SetLevel(cpu.Scalar)

	const n, dim, moves, queries, k = 3000, 48, 1500, 300, 10
	var got strings.Builder
	for _, f := range goldenFlavours {
		all := clusteredVectors(n+queries, dim, 17)
		vectors, qs := all[:n], all[n:]
		ix := New(dim, Params{})
		if f.f32 {
			ix = New32(dim, Params{})
		}
		if f.sq8 {
			ix.TrainSQ8(n, func(i int) []float64 { return vectors[i] }, 0)
		}
		for id, v := range vectors {
			if err := ix.Insert(id, v); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(18))
		for i := 0; i < moves; i++ {
			id := rng.Intn(n)
			vectors[id] = nudged(rng, vectors[id], math.Pow(10, -6+5*rng.Float64()))
			if err := ix.Insert(id, vectors[id]); err != nil {
				t.Fatal(err)
			}
		}

		m := sha256.New()
		for i := range ix.nodes {
			nd := &ix.nodes[i]
			writeUint(m, uint64(nd.id))
			for _, x := range nd.vec {
				writeUint(m, math.Float64bits(x))
			}
			for _, x := range nd.vec32 {
				writeUint(m, uint64(math.Float32bits(x)))
			}
			if f.sq8 {
				for _, c := range ix.code(int32(i)) {
					m.Write([]byte{byte(c)})
				}
				writeUint(m, math.Float64bits(ix.qcorr[i]))
			}
		}

		h := sha256.New()
		if _, err := ix.WriteLinksTo(h); err != nil {
			t.Fatal(err)
		}
		odd := func(id int) bool { return id%2 == 1 }
		var dst []Result
		for _, skip := range []func(int) bool{nil, odd} {
			for _, q := range qs {
				var st SearchStats
				dst = ix.TopKAppendStats(q, k, skip, dst, &st)
				writeUint(h, uint64(len(dst)))
				for _, r := range dst {
					writeUint(h, uint64(r.ID))
					writeUint(h, math.Float64bits(r.Score))
				}
				quantized := uint64(0)
				if st.Quantized {
					quantized = 1
				}
				for _, x := range []uint64{uint64(st.Hops), uint64(st.Nodes), uint64(st.Reranked), quantized} {
					writeUint(h, x)
				}
			}
		}
		fmt.Fprintf(&got, "%s %x %x\n", f.name, m.Sum(nil)[:8], h.Sum(nil)[:8])
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(indexGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(indexGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(indexGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if string(want) != got.String() {
		t.Errorf("index output differs from %s\ngot:\n%sgolden:\n%s", indexGolden, got.String(), want)
	}
}

func writeUint(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}
