package retro

import (
	"crypto/sha256"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/retrodb/retro/internal/storage"
)

// Crash-recovery harness. A "crash" is simulated by failing a chosen
// durability call (fsync or rename) and every one after it, then
// abandoning the engine where it stands: anything the engine cleaned up
// before the failure is equivalent to crashing slightly earlier, and
// anything it never got to fsync may or may not have reached the disk.
// Recovery then reopens the directory with real syscalls and must
// satisfy:
//
//	P1 (durability)  — every acknowledged insert is present; unacked
//	                   inserts may be present or absent.
//	P2 (determinism) — two recoveries of the same directory produce
//	                   bitwise-identical models: store rows, and the HNSW
//	                   graph compared by key.

// faultSys counts durability calls (fsync + rename, in engine call
// order) and fails call number failAt and every later one.
type faultSys struct {
	calls  int
	failAt int
}

func (f *faultSys) bump() error {
	f.calls++
	if f.calls >= f.failAt {
		return errors.New("injected crash")
	}
	return nil
}

func (f *faultSys) sys() *storage.Sys {
	return &storage.Sys{
		Fsync: func(file *os.File) error {
			if err := f.bump(); err != nil {
				return err
			}
			return file.Sync()
		},
		Rename: func(oldpath, newpath string) error {
			if err := f.bump(); err != nil {
				return err
			}
			return os.Rename(oldpath, newpath)
		},
	}
}

// crashConfig turns the index on from the first value, so the base and
// every checkpoint carry a graph.
var crashConfig = Config{ANNThreshold: 1}

// crashWorkload drives inserts and periodic checkpoints against dir
// until the injected fault fires, and returns the titles whose inserts
// were acknowledged. An error return from any step ends the run (the
// crash). Title rows use primary keys 100+i so reruns never collide
// with the fixture. Like the server, it warms the index after each
// write, so each checkpoint finds it built.
func crashWorkload(t *testing.T, dir string, sys *storage.Sys) (acked []string) {
	t.Helper()
	e, err := OpenStorage(dir, fixtureDB(t), fixtureEmbedding(), StorageOptions{Config: crashConfig, Sys: sys})
	if err != nil {
		return nil // crashed during open: nothing was acknowledged
	}
	defer func() {
		_ = e.Close() // abandon: sync errors are part of the crash
	}()
	titles := []string{"matrix", "alien", "brazil", "stalker", "playtime", "yojimbo", "ran", "ikiru"}
	for i, title := range titles {
		err := e.Session().Insert("movies", []Value{Int(int64(100 + i)), Text(title), Text("usa")})
		if err != nil {
			return acked
		}
		acked = append(acked, title)
		e.Session().Model().Store().WarmANN()
		if (i+1)%3 == 0 {
			if _, err := e.Checkpoint(); err != nil {
				return acked
			}
		}
	}
	return acked
}

// recoverVectors opens dir cleanly and returns word -> vector copies,
// the table's titles and the hash of the index by key (built first if
// recovery left it to be built).
func recoverVectors(t *testing.T, dir string) (map[string][]float64, []string, [sha256.Size]byte) {
	t.Helper()
	e, err := OpenStorage(dir, fixtureDB(t), fixtureEmbedding(), StorageOptions{Config: crashConfig})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer e.Close()
	store := e.Session().Model().Store()
	store.WarmANN()
	graph := graphByKey(t, store)
	out := make(map[string][]float64, store.Len())
	for id, w := range store.Words() {
		v := store.Vector(id)
		cp := make([]float64, len(v))
		copy(cp, v)
		out[w] = cp
	}
	var titles []string
	tbl := e.Session().DB().MustTable("movies")
	for i := 0; i < tbl.NumRows(); i++ {
		titles = append(titles, tbl.Row(i)[1].Str)
	}
	return out, titles, graph
}

// TestStorageCrashAtEveryDurabilityPoint sweeps the injected failure
// across the first N durability calls of the workload — covering fresh
// start, WAL appends, segment writes, WAL rotation, manifest renames
// and the windows between them — and asserts P1 and P2 after each.
func TestStorageCrashAtEveryDurabilityPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	const sweep = 28 // past the second checkpoint's manifest rename
	for failAt := 1; failAt <= sweep; failAt++ {
		fs := &faultSys{failAt: failAt}
		dir := t.TempDir()
		acked := crashWorkload(t, dir, fs.sys())
		if fs.calls < failAt {
			// The whole workload fit under the fault point: a clean run,
			// still worth the recovery checks below.
			t.Logf("failAt=%d: workload completed (%d durability calls)", failAt, fs.calls)
		}

		vecs, titles, graph := recoverVectors(t, dir)
		have := map[string]bool{}
		for _, title := range titles {
			have[title] = true
		}
		// P1: every acknowledged row survived.
		for _, title := range acked {
			if !have[title] {
				t.Fatalf("failAt=%d: acked insert %q lost (recovered rows: %v)", failAt, title, titles)
			}
			if _, ok := vecs["movies.title\x00"+title]; !ok {
				t.Fatalf("failAt=%d: acked insert %q missing from the recovered model", failAt, title)
			}
		}
		// P2: recovery is deterministic.
		vecs2, _, graph2 := recoverVectors(t, dir)
		if graph != graph2 {
			t.Fatalf("failAt=%d: recovery not deterministic: the two recovered graphs differ by key", failAt)
		}
		if len(vecs) != len(vecs2) {
			t.Fatalf("failAt=%d: recovery vocabularies differ: %d vs %d", failAt, len(vecs), len(vecs2))
		}
		for w, a := range vecs {
			b := vecs2[w]
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("failAt=%d: recovery not deterministic at %q[%d]: %v vs %v", failAt, w, i, a[i], b[i])
				}
			}
		}
	}
}

// TestStorageRecoveryFidelity compares the recovered model against the
// live writer it replaced: with the workload's touched rows carried at
// full float64 precision in the segments, a probe query must rank the
// same words with the same scores up to the base snapshot's float32
// rounding of never-touched rows.
func TestStorageRecoveryFidelity(t *testing.T) {
	dir := t.TempDir()
	e := openFixtureStorage(t, dir, StorageOptions{})
	s := e.Session()
	for i, title := range []string{"matrix", "alien", "brazil"} {
		if err := s.Insert("movies", []Value{Int(int64(100 + i)), Text(title), Text("france")}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveStore := s.Model().Store()
	probe, ok := liveStore.VectorOf("movies.title\x00matrix")
	if !ok {
		t.Fatal("probe vector missing from live store")
	}
	query := make([]float64, len(probe))
	copy(query, probe)
	liveScores := map[string]float64{}
	for _, m := range liveStore.TopKExact(query, liveStore.Len(), nil) {
		liveScores[m.Word] = m.Score
	}
	e.Close()

	e2 := openFixtureStorage(t, dir, StorageOptions{})
	defer e2.Close()
	recStore := e2.Session().Model().Store()
	recovered := recStore.TopKExact(query, recStore.Len(), nil)
	if len(recovered) != len(liveScores) {
		t.Fatalf("recovered ranking has %d words, live had %d", len(recovered), len(liveScores))
	}
	for _, m := range recovered {
		live, ok := liveScores[m.Word]
		if !ok {
			t.Fatalf("recovered ranking contains unknown word %q", m.Word)
		}
		if math.Abs(m.Score-live) > 1e-5 {
			t.Fatalf("score for %q drifted: live %v, recovered %v", m.Word, live, m.Score)
		}
	}
}

// TestStorageRecoverySweepsCrashWindowDebris constructs the orphan-file
// states an interrupted checkpoint can leave behind and asserts recovery
// ignores and removes them.
func TestStorageRecoverySweepsCrashWindowDebris(t *testing.T) {
	dir := t.TempDir()
	e := openFixtureStorage(t, dir, StorageOptions{})
	if err := e.Session().Insert("movies", []Value{Int(100), Text("matrix"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Debris: an orphan segment and rotated log from a checkpoint whose
	// manifest rename never happened, a stale log the delete skipped,
	// a manifest temp file, and garbage appended to the live log's tail
	// (a torn final record).
	debris := []string{"seg-000009.seg", "base-000009.snap", "MANIFEST.tmp777"}
	for _, name := range debris {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	orphanWAL, err := storage.CreateWAL(filepath.Join(dir, "wal-000009.wal"), 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	orphanWAL.Close()
	debris = append(debris, "wal-000009.wal")
	man, err := storage.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, err := os.OpenFile(filepath.Join(dir, man.WAL), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Write([]byte{0x13, 0x37}); err != nil {
		t.Fatal(err)
	}
	live.Close()

	e2 := openFixtureStorage(t, dir, StorageOptions{})
	defer e2.Close()
	queryTitle(t, e2.Session(), "matrix")
	if !e2.Stats().WALTruncated {
		t.Fatal("torn WAL tail not reported")
	}
	for _, name := range debris {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("debris %s survived recovery", name)
		}
	}
}
