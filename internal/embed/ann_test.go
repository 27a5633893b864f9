package embed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/retrodb/retro/internal/ann"
)

func randomStore(n, dim int, seed int64) *Store {
	rng := rand.New(rand.NewSource(seed))
	s := NewStore(dim)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		s.Add(fmt.Sprintf("w%04d", i), v)
	}
	return s
}

func TestTopKStaysExactBelowThreshold(t *testing.T) {
	s := randomStore(200, 8, 1)
	q := s.Vector(17)
	s.TopK(q, 5, nil)
	if s.ANNIndex() != nil {
		t.Fatal("ANN index built below threshold")
	}
}

func TestTopKRoutesToANNAboveThreshold(t *testing.T) {
	s := randomStore(300, 8, 2)
	// A wide beam on a small set makes the approximate answer exact, so
	// routing can be asserted against TopKExact result-for-result.
	s.EnableANN(100, ann.Params{EfSearch: 300})
	q := s.Vector(42)
	got := s.TopK(q, 5, func(id int) bool { return id == 42 })
	if s.ANNIndex() == nil {
		t.Fatal("ANN index not built above threshold")
	}
	want := s.TopKExact(q, 5, func(id int) bool { return id == 42 })
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Word != want[i].Word {
			t.Fatalf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDisableANNForcesExact(t *testing.T) {
	s := randomStore(300, 8, 3)
	s.EnableANN(100, ann.Params{})
	s.TopK(s.Vector(0), 3, nil)
	if s.ANNIndex() == nil {
		t.Fatal("index should be built")
	}
	s.DisableANN()
	if s.ANNIndex() != nil {
		t.Fatal("DisableANN left an index")
	}
	s.TopK(s.Vector(0), 3, nil)
	if s.ANNIndex() != nil {
		t.Fatal("index rebuilt while disabled")
	}
}

// TestAddAfterBuildIsSearchable is the incremental-maintenance property:
// a vector added after the index was built must be findable without any
// explicit rebuild.
func TestAddAfterBuildIsSearchable(t *testing.T) {
	s := randomStore(300, 8, 4)
	s.EnableANN(100, ann.Params{EfSearch: 300})
	probe := s.Vector(99)
	s.TopK(probe, 3, nil) // trigger the build
	if s.ANNIndex() == nil {
		t.Fatal("index not built")
	}
	// Add a new word right on top of the probe vector.
	v := make([]float64, 8)
	copy(v, probe)
	s.Add("fresh", v)
	top := s.TopK(probe, 2, nil)
	found := false
	for _, m := range top {
		if m.Word == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatalf("freshly added vector not returned: %+v", top)
	}
}

func TestSetVectorAfterBuildMovesEntry(t *testing.T) {
	s := randomStore(300, 8, 5)
	s.EnableANN(100, ann.Params{EfSearch: 300})
	s.TopK(s.Vector(0), 1, nil) // build
	target := make([]float64, 8)
	copy(target, s.Vector(7))
	id, _ := s.ID("w0200")
	s.SetVector(id, target)
	top := s.TopK(target, 2, nil)
	found := false
	for _, m := range top {
		if m.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("moved vector not found at new position: %+v", top)
	}
}

func TestInvalidateANNRebuilds(t *testing.T) {
	s := randomStore(300, 8, 6)
	s.EnableANN(100, ann.Params{EfSearch: 300})
	s.TopK(s.Vector(0), 1, nil)
	first := s.ANNIndex()
	if first == nil {
		t.Fatal("index not built")
	}
	s.InvalidateANN()
	if s.ANNIndex() != nil {
		t.Fatal("stale index still exposed")
	}
	s.TopK(s.Vector(0), 1, nil)
	second := s.ANNIndex()
	if second == nil || second == first {
		t.Fatal("index not rebuilt after invalidation")
	}
}

func TestWarmANNBuildsEagerly(t *testing.T) {
	s := randomStore(300, 8, 9)
	s.EnableANN(100, ann.Params{})
	s.WarmANN()
	if s.ANNIndex() == nil {
		t.Fatal("WarmANN did not build the index")
	}
	below := randomStore(50, 8, 10)
	below.EnableANN(100, ann.Params{})
	below.WarmANN()
	if below.ANNIndex() != nil {
		t.Fatal("WarmANN built below the threshold")
	}
}

// TestTuneEfSearch: retuning the query beam must not discard a built
// index (unlike EnableANN) and must show up on both the store config and
// the live index.
func TestTuneEfSearch(t *testing.T) {
	s := randomStore(300, 8, 5)
	s.EnableANN(1, ann.Params{})
	s.WarmANN()
	idx := s.ANNIndex()
	if idx == nil {
		t.Fatal("index not built")
	}
	s.TuneEfSearch(512)
	if s.ANNIndex() != idx {
		t.Fatal("TuneEfSearch discarded the index")
	}
	if got := idx.Params().EfSearch; got != 512 {
		t.Fatalf("index EfSearch %d, want 512", got)
	}
	if got := s.ANNParams().EfSearch; got != 512 {
		t.Fatalf("store EfSearch %d, want 512", got)
	}
	s.TuneEfSearch(0) // ignored
	if got := s.ANNParams().EfSearch; got != 512 {
		t.Fatalf("non-positive tune applied: %d", got)
	}
	if res := s.TopK(s.Vector(3), 5, nil); len(res) != 5 {
		t.Fatalf("TopK after retune: %d results", len(res))
	}
}

func TestCloneCarriesANNConfig(t *testing.T) {
	s := randomStore(300, 8, 7)
	s.EnableANN(100, ann.Params{EfSearch: 300})
	c := s.Clone()
	c.TopK(c.Vector(0), 1, nil)
	if c.ANNIndex() == nil {
		t.Fatal("clone did not inherit ANN threshold")
	}
}

// TestOverwritesMoveInPlaceZeroingTombstones pins which store writes
// tombstone: overwriting a vector — any number of times — moves its graph
// node in place and never costs a rebuild, while a row written to zero is
// deleted from the graph, and only those deletions can trigger the lazy
// rebuild once they outnumber the live nodes.
func TestOverwritesMoveInPlaceZeroingTombstones(t *testing.T) {
	const n, dim = 300, 8
	s := randomStore(n, dim, 9)
	s.EnableANN(100, ann.Params{})
	s.WarmANN()
	built := s.ANNIndex()

	rng := rand.New(rand.NewSource(10))
	for round := 0; round < 3; round++ { // 3n overwrites: far more than live nodes
		for id := 0; id < n; id++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			s.SetVector(id, v)
		}
	}
	if idx := s.ANNIndex(); idx != built || idx.Deleted() != 0 || idx.Len() != n {
		t.Fatalf("after %d overwrites: same index %v, %d tombstones, %d live; want the built index, 0 and %d",
			3*n, idx == built, idx.Deleted(), idx.Len(), n)
	}

	zero := make([]float64, dim)
	for id := 0; id < n/2; id++ {
		s.SetVector(id, zero)
	}
	if idx := s.ANNIndex(); idx != built || idx.Deleted() != n/2 || idx.Len() != n/2 {
		t.Fatalf("after zeroing half the rows: same index %v, %d tombstones, %d live", idx == built, idx.Deleted(), idx.Len())
	}
	s.SetVector(n/2, zero) // the dead now outnumber the living
	if s.ANNIndex() != nil {
		t.Fatal("index not marked for rebuild once tombstones outnumber live nodes")
	}
	s.WarmANN()
	if idx := s.ANNIndex(); idx == nil || idx == built || idx.Deleted() != 0 || idx.Len() != n/2-1 {
		t.Fatal("rebuild after deletions did not produce a fresh tombstone-free index over the non-zero rows")
	}
}

// TestNonFiniteRowsAreUnplaceable: a row written to a NaN or infinite
// vector is treated as a zero row — the index deletes its node, keeps
// serving, and is not marked for a rebuild — and a build skips such rows.
func TestNonFiniteRowsAreUnplaceable(t *testing.T) {
	const n, dim = 300, 8
	for _, p := range []Precision{F64, F32} {
		t.Run(p.String(), func(t *testing.T) {
			s := NewStoreWithPrecision(dim, p)
			src := randomStore(n, dim, 11)
			for id := 0; id < n; id++ {
				s.Add(src.Word(id), src.Vector(id))
			}
			s.EnableANN(100, ann.Params{})
			s.WarmANN()
			built := s.ANNIndex()

			nan, inf := make([]float64, dim), make([]float64, dim)
			nan[0], inf[1] = math.NaN(), math.Inf(-1)
			s.SetVector(0, nan)
			s.SetVector(1, inf)
			idx := s.ANNIndex()
			if idx != built || idx.Deleted() != 2 || idx.Len() != n-2 || idx.Contains(0) || idx.Contains(1) {
				t.Fatalf("after two non-finite writes: same index %v, %d tombstones, %d live; want the built index, 2 and %d", idx == built, idx.Deleted(), idx.Len(), n-2)
			}
			for _, m := range s.TopK(s.Vector(2), 10, nil) {
				if m.ID < 2 || math.IsNaN(m.Score) {
					t.Fatalf("query answered %+v", m)
				}
			}
			if s.ANNIndex() != built {
				t.Fatal("a query after non-finite writes rebuilt the index")
			}

			c := s.Clone()
			c.WarmANN()
			if idx := c.ANNIndex(); idx == nil || idx.Deleted() != 0 || idx.Len() != n-2 {
				t.Fatal("a build did not skip the non-finite rows")
			}
		})
	}
}
