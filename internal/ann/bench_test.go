package ann

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The index-maintenance benchmarks run at the served shape: dim 300,
// float32 rows, SQ8 codes, 4k vectors from a clustered mixture (about the
// size and the regime of the end-to-end benchmark's world).
const (
	benchN   = 4000
	benchDim = 300
)

func benchBuild(b *testing.B, vectors [][]float64) *Index {
	ix := New32(benchDim, Params{})
	ix.TrainSQ8(len(vectors), func(i int) []float64 { return vectors[i] }, 0)
	for id, v := range vectors {
		if err := ix.Insert(id, v); err != nil {
			b.Fatal(err)
		}
	}
	return ix
}

// BenchmarkANNBuild is the bulk build every boot, recovery and follower
// re-sync pays: one op is one whole index, us/value is the per-insert
// cost the end-to-end benchmark reports as ann.build_us_per_value.
func BenchmarkANNBuild(b *testing.B) {
	vectors := clusteredVectors(benchN, benchDim, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBuild(b, vectors)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*benchN), "us/value")
}

// BenchmarkANNRelink is what a delta repair does to each row it touched:
// one op moves one held id by 1e-6..1e-3 in 1 - cosine in place, and
// re-links it when the move changed its SQ8 code. relinked/op is the
// share of ops that re-linked, so ns/op reads as a mix of the two costs.
func BenchmarkANNRelink(b *testing.B) {
	vectors := clusteredVectors(benchN, benchDim, 7)
	ix := benchBuild(b, vectors)
	rng := rand.New(rand.NewSource(9))
	linked := ix.Linked()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := rng.Intn(benchN)
		vectors[id] = nudged(rng, vectors[id], math.Pow(10, -6+3*rng.Float64()))
		if err := ix.Insert(id, vectors[id]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ix.Linked()-linked)/float64(b.N), "relinked/op")
	if ix.Deleted() != 0 || len(ix.nodes) != benchN {
		b.Fatalf("re-links left %d tombstones and %d slots for %d ids", ix.Deleted(), len(ix.nodes), benchN)
	}
}

// BenchmarkANNTopKAppend is one uncached neighbour query — a block of one
// on the search engine — against the same index, k = 10, results into a
// caller-owned buffer.
func BenchmarkANNTopKAppend(b *testing.B) {
	vectors := clusteredVectors(benchN+256, benchDim, 7)
	ix := benchBuild(b, vectors[:benchN])
	queries := vectors[benchN:]
	dst := make([]Result, 0, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.TopKAppend(queries[i%len(queries)], 10, nil, dst)
	}
}

// BenchmarkANNTopKMany is the batch endpoint's search against the same
// index at blocks of 1, 16 and 64 queries, k = 10: one op is one block,
// and ns/query is what a query costs as the block fills.
func BenchmarkANNTopKMany(b *testing.B) {
	vectors := clusteredVectors(benchN+256, benchDim, 7)
	ix := benchBuild(b, vectors[:benchN])
	queries := vectors[benchN:]
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			ks := make([]int, batch)
			for i := range ks {
				ks[i] = 10
			}
			block := make([][]float64, batch)
			var dst [][]Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range block {
					block[j] = queries[(i*batch+j)%len(queries)]
				}
				dst = ix.TopKManyAppend(block, ks, nil, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/query")
		})
	}
}
