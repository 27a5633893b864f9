package embed

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/retrodb/retro/internal/ann"
)

// TestQuantizedRecallGuard is the recall gate of the SQ8 serving path:
// traversal on 8-bit codes with exact re-ranking must hold recall@10 >=
// 0.95 against the exact scan, through the single-query path and through
// TopKMany itself, in both store precisions — F32 is the one retro-serve
// serves. The world is 300-dim vectors from a 256-centre mixture. The
// default run uses 10k values so the tier-1 suite stays fast; CI's
// recall-guard job sets RETRO_RECALL_FULL=1 to run 50k.
func TestQuantizedRecallGuard(t *testing.T) {
	n := 10_000
	if os.Getenv("RETRO_RECALL_FULL") != "" {
		n = 50_000
	} else if testing.Short() || raceEnabled {
		t.Skip("short mode / race detector (enforced by the recall-guard CI job)")
	}
	for _, c := range []struct {
		name      string
		precision Precision
	}{{"f64", F64}, {"f32", F32}} {
		t.Run(c.name, func(t *testing.T) {
			s, queries := recallWorld(n, c.precision)
			queries = queries[:64]
			single := make([][]Match, len(queries))
			for i, q := range queries {
				single[i] = s.TopK(q, 10, nil)
			}
			var batched [][]Match
			for base := 0; base < len(queries); base += 32 {
				batched = append(batched, s.TopKMany(queries[base:min(base+32, len(queries))], 10, nil)...)
			}
			for _, path := range []struct {
				name    string
				answers [][]Match
			}{{"single", single}, {"batched", batched}} {
				recall := recall10(s, queries, path.answers)
				t.Logf("%s recall@10 = %.4f on n=%d", path.name, recall, n)
				if recall < 0.95 {
					t.Fatalf("%s quantized recall@10 = %.4f on n=%d, want >= 0.95", path.name, recall, n)
				}
			}
		})
	}
}

// recallWorld builds a frozen store of n 300-dim vectors drawn from a
// 256-centre Gaussian mixture, with its HNSW graph built on exact
// distances and then quantized to SQ8 codes, plus 2048 queries from the
// same mixture. The vector stream is the same for every precision.
func recallWorld(n int, p Precision) (*Store, [][]float64) {
	const dim = 300
	rng := rand.New(rand.NewSource(42))
	centers := make([][]float64, 256)
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
	s := NewStoreWithPrecision(dim, p)
	s.EnableANN(1, ann.Params{})
	for i := 0; i < n; i++ {
		s.Add(fmt.Sprintf("v%07d", i), point())
	}
	queries := make([][]float64, 2048)
	for qi := range queries {
		queries[qi] = point()
	}
	s.WarmANN()
	s.EnableQuantization(QuantSQ8, 0)
	return s.Freeze(), queries
}

// recall10 is the share of each query's exact top 10 that its answer
// holds.
func recall10(s *Store, queries [][]float64, answers [][]Match) float64 {
	hits := 0
	for i, q := range queries {
		want := map[int]bool{}
		for _, m := range s.TopKExact(q, 10, nil) {
			want[m.ID] = true
		}
		for _, m := range answers[i] {
			if want[m.ID] {
				hits++
			}
		}
	}
	return float64(hits) / float64(10*len(queries))
}
