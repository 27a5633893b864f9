package ann

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The float32 index must answer like the float64 index built from the
// same data: the stored rows differ only by the one float32 rounding at
// the insert boundary, and the Dot32 kernel accumulates in float64, so
// scores agree to ~1e-6 and the returned neighbour sets are essentially
// identical (ids may swap only across genuine near-ties).

func buildPairedIndexes(t *testing.T, n, dim int, p Params, quantize bool) (*Index, *Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ix64 := New(dim, p)
	ix32 := New32(dim, p)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		// Round once before inserting into BOTH sides, so the only
		// difference between the indexes is the storage representation,
		// not the input data.
		for d := range v {
			v[d] = float64(float32(v[d]))
		}
		if err := ix64.Insert(i, v); err != nil {
			t.Fatalf("f64 insert %d: %v", i, err)
		}
		if err := ix32.Insert(i, v); err != nil {
			t.Fatalf("f32 insert %d: %v", i, err)
		}
	}
	if quantize {
		ix64.QuantizeSQ8(0)
		ix32.QuantizeSQ8(0)
	}
	return ix64, ix32
}

func queryOverlap(a, b []Result) int {
	seen := make(map[int]bool, len(a))
	for _, r := range a {
		seen[r.ID] = true
	}
	n := 0
	for _, r := range b {
		if seen[r.ID] {
			n++
		}
	}
	return n
}

func TestF32IndexMatchesF64(t *testing.T) {
	for _, quantize := range []bool{false, true} {
		name := "exact"
		if quantize {
			name = "quantized"
		}
		t.Run(name, func(t *testing.T) {
			const n, dim, k = 600, 48, 10
			ix64, ix32 := buildPairedIndexes(t, n, dim, DefaultParams(), quantize)
			if quantize {
				// Codes are trained and encoded through float64 arithmetic
				// on both sides, so they must be bit-identical.
				if !bytes.Equal(int8Bytes(ix64.qflat), int8Bytes(ix32.qflat)) {
					t.Fatal("SQ8 codes differ between f32 and f64 indexes")
				}
			}
			rng := rand.New(rand.NewSource(7))
			total, matched := 0, 0
			for qi := 0; qi < 50; qi++ {
				q := make([]float64, dim)
				for d := range q {
					q[d] = rng.NormFloat64()
				}
				r64 := ix64.TopK(q, k, nil)
				r32 := ix32.TopK(q, k, nil)
				if len(r64) != len(r32) {
					t.Fatalf("query %d: %d vs %d results", qi, len(r64), len(r32))
				}
				total += len(r64)
				matched += queryOverlap(r64, r32)
				for i := range r64 {
					if d := math.Abs(r64[i].Score - r32[i].Score); d > 1e-5 {
						t.Fatalf("query %d rank %d: score %g vs %g", qi, i, r64[i].Score, r32[i].Score)
					}
				}
			}
			if float64(matched) < 0.99*float64(total) {
				t.Fatalf("f32/f64 neighbour overlap %d/%d below 99%%", matched, total)
			}
		})
	}
}

func int8Bytes(a []int8) []byte {
	out := make([]byte, len(a))
	for i, v := range a {
		out[i] = byte(v)
	}
	return out
}

// Batch results on a float32 index must be bit-identical to the
// single-query path — and both to the reference traversal — same as the
// float64 contract.
func TestF32BatchMatchesSingle(t *testing.T) {
	const n, dim, k = 400, 32, 8
	for _, quantize := range []bool{false, true} {
		_, ix := buildPairedIndexes(t, n, dim, DefaultParams(), quantize)
		queries := randomVectors(64, dim, 11)
		ks := make([]int, len(queries))
		for i := range ks {
			ks[i] = k
		}
		assertBatchMatchesLoop(t, ix, queries, ks, nil)
	}
}

// A graph written by either precision loads into either precision: the
// on-disk layout has always packed vectors as float32.
func TestF32GraphCrossPrecisionIO(t *testing.T) {
	const n, dim, k = 300, 24, 5
	ix64, ix32 := buildPairedIndexes(t, n, dim, DefaultParams(), false)

	var buf64, buf32 bytes.Buffer
	if _, err := ix64.WriteTo(&buf64); err != nil {
		t.Fatal(err)
	}
	if _, err := ix32.WriteTo(&buf32); err != nil {
		t.Fatal(err)
	}
	// Same insertion order, same rounded inputs, same level RNG — the
	// serialised graphs must be byte-identical across precisions.
	if !bytes.Equal(buf64.Bytes(), buf32.Bytes()) {
		t.Fatal("serialised f32 and f64 graphs differ")
	}

	q := make([]float64, dim)
	rng := rand.New(rand.NewSource(3))
	for d := range q {
		q[d] = rng.NormFloat64()
	}
	want := ix32.TopK(q, k, nil)
	for name, load := range map[string]func() (*Index, error){
		"f64file-f32index": func() (*Index, error) { return Read32(bytes.NewReader(buf64.Bytes())) },
		"f32file-f32index": func() (*Index, error) { return Read32(bytes.NewReader(buf32.Bytes())) },
		"f32file-f64index": func() (*Index, error) { return Read(bytes.NewReader(buf32.Bytes())) },
	} {
		got, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := got.TopK(q, k, nil)
		if len(res) != len(want) {
			t.Fatalf("%s: %d vs %d results", name, len(res), len(want))
		}
		for i := range res {
			if res[i].ID != want[i].ID || math.Abs(res[i].Score-want[i].Score) > 1e-6 {
				t.Fatalf("%s rank %d: %+v vs %+v", name, i, res[i], want[i])
			}
		}
	}
}

// MemoryStats must reflect the representation: an f32 graph's vector
// payload is exactly half the f64 one's.
func TestF32MemoryStats(t *testing.T) {
	ix64, ix32 := buildPairedIndexes(t, 200, 40, DefaultParams(), true)
	ms64, ms32 := ix64.MemoryStats(), ix32.MemoryStats()
	if ms64.VectorBytes != int64(200*40*8) {
		t.Fatalf("f64 VectorBytes = %d, want %d", ms64.VectorBytes, 200*40*8)
	}
	if ms32.VectorBytes*2 != ms64.VectorBytes {
		t.Fatalf("f32 VectorBytes = %d, f64 = %d, want half", ms32.VectorBytes, ms64.VectorBytes)
	}
	if ms32.CodeBytes != int64(200*40)+200*8 {
		t.Fatalf("CodeBytes = %d", ms32.CodeBytes)
	}
	if ms32.AdjacencyBytes == 0 || ms32.AdjacencyBytes != ms64.AdjacencyBytes {
		t.Fatalf("AdjacencyBytes = %d vs %d", ms32.AdjacencyBytes, ms64.AdjacencyBytes)
	}
}
