package retro

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/retrodb/retro/internal/datagen"
)

// graphWorldConfig is the served configuration — float32 rows, SQ8
// codes — with the index on from the first value.
func graphWorldConfig() Config {
	cfg := Defaults()
	cfg.ANNThreshold = 1
	cfg.Precision = F32
	cfg.Quantization = QuantSQ8
	return cfg
}

// openGraphWorld opens dir over a fresh copy of the 300-movie world, the
// way a restarted server sees it: the database as generated, the rows
// past it in the directory.
func openGraphWorld(t *testing.T, dir string, opts StorageOptions) *StorageEngine {
	t.Helper()
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 300, Dim: 24, Seed: 3})
	opts.Config = graphWorldConfig()
	start := time.Now()
	e, err := OpenStorage(dir, w.DB, w.Embedding, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("open: %v", time.Since(start).Round(time.Millisecond))
	// Below half the vocabulary, as the default budget the WAL replay
	// runs under is at this size: every repair maintains the index in
	// place instead of invalidating it.
	e.Session().RepairBudget = 128
	return e
}

// graphByKey hashes store's index with every node id renamed to its
// key's rank in the sorted vocabulary: two stores that number their rows
// differently hash alike when their graphs agree slot by slot on links,
// vectors, keys and, on a quantized index, codes.
func graphByKey(t *testing.T, store *Embedding) [sha256.Size]byte {
	t.Helper()
	idx := store.ANNIndex()
	if idx == nil {
		t.Fatal("store has no built index")
	}
	sorted := slices.Clone(store.Words())
	slices.Sort(sorted)
	cp := idx.Clone()
	if err := cp.Relabel(func(id int) (int, bool) {
		return slices.BinarySearch(sorted, store.Word(id))
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if cp.Quantized() {
		if _, err := cp.WriteQuantTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return sha256.Sum256(buf.Bytes())
}

// TestStorageRecoversGraph: a checkpoint persists the graph and a restart
// installs it instead of rebuilding the index. Each round inserts, warms
// the index as the server does after every write, checkpoints, closes
// and reopens, and the recovered graph must equal the writer's by key.
// The rounds cover a recovery that renumbers the store (after the first
// one the writer's ids no longer follow the extraction's order, so only
// a key map finds the nodes), a second segment over the first, and a
// compaction, whose graph comes from the base snapshot. A last restart
// replays a WAL tail through the installed graph.
func TestStorageRecoversGraph(t *testing.T) {
	dir := t.TempDir()
	e := openGraphWorld(t, dir, StorageOptions{})
	// Titles from the base vocabulary, so each inserted value gets a
	// vector of its own.
	words := datagen.TMDB(datagen.TMDBConfig{Movies: 300, Dim: 24, Seed: 3}).Embedding.Words()
	next := 0
	insert := func(n int) []string {
		var titles []string
		for i := 0; i < n; i++ {
			title := fmt.Sprintf("%s %s premiere", words[(7*next+1)%len(words)], words[(13*next+5)%len(words)])
			if err := e.Session().Insert("movies", benchMovieRow(90_000+next, title)); err != nil {
				t.Fatal(err)
			}
			titles = append(titles, title)
			next++
		}
		e.Session().Model().Store().WarmANN()
		return titles
	}

	for _, round := range []struct {
		name    string
		reopen  StorageOptions // options of the engine the next round checkpoints
		compact bool
	}{
		{name: "first-segment"},
		{name: "second-segment", reopen: StorageOptions{MaxSegments: 1}},
		{name: "compaction", compact: true},
	} {
		insert(3)
		ck, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if ck.Compacted != round.compact {
			t.Fatalf("%s: checkpoint compacted=%v", round.name, ck.Compacted)
		}
		writer := e.Session().Model().Store()
		want := graphByKey(t, writer)
		writerOrder := slices.Clone(writer.Words())
		e.Close()

		e = openGraphWorld(t, dir, round.reopen)
		got := e.Session().Model().Store()
		if got.ANNIndex() == nil {
			t.Fatalf("%s: recovery did not install the checkpointed graph", round.name)
		}
		if graphByKey(t, got) != want {
			t.Fatalf("%s: recovered graph differs from the checkpointed one", round.name)
		}
		if round.name == "first-segment" && slices.Equal(got.Words(), writerOrder) {
			t.Fatalf("%s: recovery kept the writer's row order; the round does not test the key map", round.name)
		}
	}

	tail := insert(3)
	e.Close()
	e = openGraphWorld(t, dir, StorageOptions{})
	defer e.Close()
	if st := e.Stats(); st.ReplayedRows != len(tail) {
		t.Fatalf("replayed %d rows, want %d", st.ReplayedRows, len(tail))
	}
	store := e.Session().Model().Store()
	if store.ANNIndex() == nil {
		t.Fatal("the WAL tail did not replay through the installed graph")
	}
	for _, title := range tail {
		key, ok := e.Session().Model().Key("movies", "title", title)
		if !ok {
			t.Fatalf("replayed row %q not in the model", title)
		}
		id, _ := store.ID(key)
		hits := store.TopK(store.Vector(id), 10, nil)
		if !slices.ContainsFunc(hits, func(m Match) bool { return m.ID == id }) {
			t.Fatalf("replayed value %q is not among its own 10 nearest neighbours: %+v", title, hits)
		}
	}
	fresh := store.Clone()
	fresh.WarmANN()
	recovered, rebuilt := recallAt10(store), recallAt10(fresh)
	t.Logf("recall@10: recovered %.4f, fresh build %.4f", recovered, rebuilt)
	if recovered < rebuilt-0.01 {
		t.Fatalf("recall@10 of the recovered graph %.4f is more than 0.01 below a fresh build's %.4f", recovered, rebuilt)
	}
}

// recallAt10 is the ANN path's recall@10 against the exact scan, over
// every fifth value of the store as the query.
func recallAt10(store *Embedding) float64 {
	hit, total := 0, 0
	for id := 0; id < store.Len(); id += 5 {
		q := store.Vector(id)
		exact := map[int]bool{}
		for _, m := range store.TopKExact(q, 10, nil) {
			exact[m.ID] = true
		}
		for _, m := range store.TopK(q, 10, nil) {
			if exact[m.ID] {
				hit++
			}
		}
		total += len(exact)
	}
	return float64(hit) / float64(total)
}

// TestStorageFreshBaseCarriesGraph: the base a fresh start writes
// carries the built index, so reopening a directory that never
// checkpointed finds the index without building it.
func TestStorageFreshBaseCarriesGraph(t *testing.T) {
	dir := t.TempDir()
	e := openGraphWorld(t, dir, StorageOptions{})
	if e.Session().Model().Store().ANNIndex() == nil {
		t.Fatal("fresh start booted without a built index")
	}
	e.Close()
	e = openGraphWorld(t, dir, StorageOptions{})
	defer e.Close()
	idx := e.Session().Model().Store().ANNIndex()
	if idx == nil {
		t.Fatal("reopening a never-checkpointed directory left the index to be built")
	}
	if !idx.Quantized() {
		t.Fatal("the base's index came back without its SQ8 codes")
	}
}
