package retro

import (
	"runtime"
	"testing"

	"github.com/retrodb/retro/internal/datagen"
)

// retrofitAllocBound caps the bytes one Retrofit allocates, as a multiple
// of the N·dim·8 bytes of one float64 copy of the result. The solve keeps
// five such matrices (W0, the centroids, the two iterates and the store),
// each allocated once; the rest is extraction and tokenization. Growing
// the store by doubling, or a temporary vector per initial value, pushes
// the multiple past the bound (to about 9.3x on this world).
const retrofitAllocBound = 7.5

// TestRetrofitAllocations guards the bytes one sequential Retrofit
// allocates (runtime.MemStats.TotalAlloc) on a fixed 300-movie world at
// the paper's 300 dims.
func TestRetrofitAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 300-movie world at 300 dims")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	world := datagen.TMDB(datagen.TMDBConfig{Movies: 300, Dim: 300, Seed: 1})
	cfg := Defaults()
	cfg.ANNThreshold = -1 // no index: the guard is about training
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := Retrofit(world.DB, world.Embedding, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n, dim := m.NumValues(), m.Store().Dim()
	allocated := after.TotalAlloc - before.TotalAlloc
	multiple := float64(allocated) / float64(n*dim*8)
	t.Logf("N=%d dim=%d: %.1f MB allocated, %.2fx N·dim·8 (bound %.1fx)", n, dim, float64(allocated)/1e6, multiple, retrofitAllocBound)
	if multiple > retrofitAllocBound {
		t.Errorf("Retrofit allocated %.2fx N·dim·8, above the %.1fx bound", multiple, retrofitAllocBound)
	}
}
