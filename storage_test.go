package retro

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/retrodb/retro/internal/storage"
)

// openFixtureStorage opens a storage engine over the standard movie
// fixture in dir. Recovery paths get a FRESH fixture database — the
// segments and WAL must rebuild everything past the fixture rows.
func openFixtureStorage(t *testing.T, dir string, opts StorageOptions) *StorageEngine {
	t.Helper()
	e, err := OpenStorage(dir, fixtureDB(t), fixtureEmbedding(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// queryTitle asserts the model resolves a movies.title value.
func queryTitle(t *testing.T, s *Session, title string) {
	t.Helper()
	if _, err := s.Model().Vector("movies", "title", title); err != nil {
		t.Fatalf("title %q not in recovered model: %v", title, err)
	}
}

func TestStorageFreshOpenLayout(t *testing.T) {
	dir := t.TempDir()
	e := openFixtureStorage(t, dir, StorageOptions{})
	defer e.Close()

	for _, name := range []string{storage.ManifestName, "base-000001.snap", "wal-000001.wal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("fresh open did not create %s: %v", name, err)
		}
	}
	man := e.Manifest()
	if man.Epoch != 1 || man.WALSeq != 0 || len(man.Segments) != 0 {
		t.Fatalf("fresh manifest = %+v", man)
	}
	if got := e.Session().Model().Store().Epoch(); got != 1 {
		t.Fatalf("store epoch after fresh open = %d, want 1", got)
	}
}

func TestStorageWALReplayOnReopen(t *testing.T) {
	dir := t.TempDir()
	e := openFixtureStorage(t, dir, StorageOptions{})
	s := e.Session()
	if err := s.Insert("movies", []Value{Int(5), Text("matrix"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch("movies", [][]Value{
		{Int(6), Text("alien"), Text("usa")},
		{Int(7), Text("delicatessen"), Text("france")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// No checkpoint ran: everything must come back through WAL replay.
	e2 := openFixtureStorage(t, dir, StorageOptions{})
	defer e2.Close()
	st := e2.Stats()
	if st.ReplayedRecords != 2 || st.ReplayedRows != 3 {
		t.Fatalf("replayed %d records / %d rows, want 2 / 3", st.ReplayedRecords, st.ReplayedRows)
	}
	for _, title := range []string{"matrix", "alien", "delicatessen"} {
		queryTitle(t, e2.Session(), title)
	}
	if n := e2.Session().DB().MustTable("movies").NumRows(); n != 7 {
		t.Fatalf("recovered movies rows = %d, want 7", n)
	}
}

func TestStorageCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	e := openFixtureStorage(t, dir, StorageOptions{})
	s := e.Session()
	if err := s.Insert("movies", []Value{Int(5), Text("matrix"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	st, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped || st.Epoch != 2 || st.Rows != 1 {
		t.Fatalf("checkpoint stats = %+v", st)
	}
	// A checkpoint with nothing new must not touch the directory.
	st2, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Skipped {
		t.Fatalf("idle checkpoint not skipped: %+v", st2)
	}
	// One more insert rides the post-checkpoint WAL.
	if err := s.Insert("movies", []Value{Int(6), Text("alien"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	man, err := storage.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Epoch != 2 || len(man.Segments) != 1 || man.WALSeq != 1 {
		t.Fatalf("manifest after checkpoint = %+v", man)
	}

	e2 := openFixtureStorage(t, dir, StorageOptions{})
	defer e2.Close()
	if st := e2.Stats(); st.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1 (only the post-checkpoint insert)", st.ReplayedRecords)
	}
	queryTitle(t, e2.Session(), "matrix") // via segment
	queryTitle(t, e2.Session(), "alien")  // via WAL replay
}

func TestStorageRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	e := openFixtureStorage(t, dir, StorageOptions{})
	s := e.Session()
	if err := s.Insert("movies", []Value{Int(5), Text("matrix"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("movies", []Value{Int(6), Text("alien"), Text("france")}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Two recoveries of the same directory must agree bit-for-bit:
	// recovery is a pure function of the directory contents.
	vecsOf := func() map[string][]float64 {
		e, err := OpenStorage(dir, fixtureDB(t), fixtureEmbedding(), StorageOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		out := map[string][]float64{}
		store := e.Session().Model().Store()
		for id, w := range store.Words() {
			v := store.Vector(id)
			cp := make([]float64, len(v))
			copy(cp, v)
			out[w] = cp
		}
		return out
	}
	a, b := vecsOf(), vecsOf()
	if len(a) != len(b) {
		t.Fatalf("vocabulary sizes differ: %d vs %d", len(a), len(b))
	}
	for w, va := range a {
		vb, ok := b[w]
		if !ok {
			t.Fatalf("word %q missing from second recovery", w)
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("word %q dim %d differs: %v vs %v", w, i, va[i], vb[i])
			}
		}
	}
}

// TestStoragePartialCommitNotReplayed is the regression test for the
// BatchError/WAL interaction: only the committed prefix of a partially
// failed batch may be logged, so the rejected row never reappears on
// recovery.
func TestStoragePartialCommitNotReplayed(t *testing.T) {
	dir := t.TempDir()
	e := openFixtureStorage(t, dir, StorageOptions{})
	s := e.Session()
	err := s.InsertBatch("movies", [][]Value{
		{Int(5), Text("matrix"), Text("usa")},
		{Int(1), Text("dupe"), Text("usa")},  // duplicate primary key: rejected
		{Int(6), Text("alien"), Text("usa")}, // never attempted
	})
	var be *BatchError
	if !errors.As(err, &be) || be.Committed != 1 || be.Index != 1 {
		t.Fatalf("expected BatchError{Committed:1, Index:1}, got %v", err)
	}
	e.Close()

	e2 := openFixtureStorage(t, dir, StorageOptions{})
	defer e2.Close()
	db := e2.Session().DB()
	if n := db.MustTable("movies").NumRows(); n != 5 {
		t.Fatalf("recovered rows = %d, want 5 (fixture 4 + committed 1)", n)
	}
	queryTitle(t, e2.Session(), "matrix")
	if _, err := e2.Session().Model().Vector("movies", "title", "dupe"); err == nil {
		t.Fatal("rejected row replayed into the recovered model")
	}
	// The never-attempted row can be inserted cleanly now.
	if err := e2.Session().Insert("movies", []Value{Int(6), Text("alien"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
}

func TestStorageLegacySnapshotAdoption(t *testing.T) {
	dir := t.TempDir()
	// Write a pre-engine single-file snapshot the old way.
	sess, err := NewSession(fixtureDB(t), fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteSnapshotFile(filepath.Join(dir, "model.snap")); err != nil {
		t.Fatal(err)
	}

	e := openFixtureStorage(t, dir, StorageOptions{})
	defer e.Close()
	man := e.Manifest()
	if man.Base != "model.snap" || man.Epoch != 1 || len(man.Segments) != 0 {
		t.Fatalf("adopted manifest = %+v", man)
	}
	queryTitle(t, e.Session(), "inception")
	// The adopted directory is a live engine: inserts log and recover.
	if err := e.Session().Insert("movies", []Value{Int(5), Text("matrix"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2 := openFixtureStorage(t, dir, StorageOptions{})
	defer e2.Close()
	queryTitle(t, e2.Session(), "matrix")
}

func TestStorageCompaction(t *testing.T) {
	dir := t.TempDir()
	e := openFixtureStorage(t, dir, StorageOptions{MaxSegments: 2})
	s := e.Session()
	id := int64(5)
	insertAndCheckpoint := func() CheckpointStats {
		t.Helper()
		title := Text("film-" + string(rune('a'+id)))
		if err := s.Insert("movies", []Value{Int(id), title, Text("usa")}); err != nil {
			t.Fatal(err)
		}
		id++
		st, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := insertAndCheckpoint(); st.Compacted {
		t.Fatal("first checkpoint compacted")
	}
	if st := insertAndCheckpoint(); st.Compacted {
		t.Fatal("second checkpoint compacted")
	}
	// Third delta would make the chain 3 > MaxSegments=2: compact.
	st := insertAndCheckpoint()
	if !st.Compacted {
		t.Fatal("third checkpoint did not compact")
	}
	man := e.Manifest()
	// The chain resets to the one carried-forward rows segment (the
	// database rows must survive the old chain's deletion); the vectors
	// all fold into the fresh base.
	if len(man.Segments) != 1 || man.Segments[0] != storage.SegmentName(man.Epoch) || man.Base != storage.BaseName(man.Epoch) {
		t.Fatalf("post-compaction manifest = %+v", man)
	}
	// Old base and segments are swept.
	if _, err := os.Stat(filepath.Join(dir, "base-000001.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old base still present: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000002.seg")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old segment still present: %v", err)
	}
	e.Close()

	e2 := openFixtureStorage(t, dir, StorageOptions{})
	defer e2.Close()
	for _, title := range []string{"film-f", "film-g", "film-h"} {
		queryTitle(t, e2.Session(), title)
	}
}

// TestStorageWALCountersSurviveCheckpoint: the engine's append and sync
// counts are totals over every log it has written, so the rotation at a
// checkpoint does not reset them; the byte count is the active log's.
func TestStorageWALCountersSurviveCheckpoint(t *testing.T) {
	e := openFixtureStorage(t, t.TempDir(), StorageOptions{})
	defer e.Close()
	s := e.Session()
	if err := s.Insert("movies", []Value{Int(5), Text("matrix"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().WAL
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rotated := e.Stats().WAL
	if rotated.Appends != before.Appends || rotated.Syncs < before.Syncs || rotated.SyncNanos < before.SyncNanos {
		t.Fatalf("counters went back at the checkpoint: %+v, then %+v", before, rotated)
	}
	if rotated.Bytes >= before.Bytes {
		t.Fatalf("WAL bytes %d after rotation, %d before: want the fresh log's size", rotated.Bytes, before.Bytes)
	}
	if err := s.Insert("movies", []Value{Int(6), Text("alien"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().WAL.Appends; got != 2 {
		t.Fatalf("WAL appends = %d after append, checkpoint, append; want 2", got)
	}
}

func TestStorageWALFailureWithholdsAck(t *testing.T) {
	dir := t.TempDir()
	failing := false
	sys := &storage.Sys{Fsync: func(f *os.File) error {
		if failing {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}}
	e, err := OpenStorage(dir, fixtureDB(t), fixtureEmbedding(), StorageOptions{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	failing = true
	err = e.Session().Insert("movies", []Value{Int(5), Text("matrix"), Text("usa")})
	var werr *WALError
	if !errors.As(err, &werr) {
		t.Fatalf("expected WALError, got %v", err)
	}
	if !e.Session().Stale() {
		t.Fatal("session not stale after WAL failure")
	}
}
