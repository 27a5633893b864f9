package retro

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/retrodb/retro/internal/vec"
)

func TestInsertBatchOneRepair(t *testing.T) {
	db := fixtureDB(t)
	sess, err := NewSession(db, fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Model().NumValues()

	rows := [][]Value{
		{Int(10), Text("brazil"), Text("usa")},
		{Int(11), Text("leon"), Text("france")},
		{Int(12), Text("nikita"), Text("france")},
	}
	if err := sess.InsertBatch("movies", rows); err != nil {
		t.Fatal(err)
	}
	if got := sess.Model().NumValues(); got != before+3 {
		t.Fatalf("values = %d, want %d", got, before+3)
	}
	// Every inserted value is queryable and relationally placed.
	b, err := sess.Model().Vector("movies", "title", "brazil")
	if err != nil {
		t.Fatal(err)
	}
	us, _ := sess.Model().Vector("movies", "country", "usa")
	fr, _ := sess.Model().Vector("movies", "country", "france")
	if vec.SquaredDistance(b, us) >= vec.SquaredDistance(b, fr) {
		t.Fatal("batched value not placed relationally")
	}
	l, err := sess.Model().Vector("movies", "title", "leon")
	if err != nil {
		t.Fatal(err)
	}
	if vec.SquaredDistance(l, fr) >= vec.SquaredDistance(l, us) {
		t.Fatal("second batched value not placed relationally")
	}
}

func TestInsertBatchMatchesSingleInserts(t *testing.T) {
	mk := func() (*Session, error) {
		return NewSession(fixtureDB(t), fixtureEmbedding(), Defaults())
	}
	batched, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	single, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]Value{
		{Int(10), Text("brazil"), Text("usa")},
		{Int(11), Text("leon"), Text("france")},
	}
	if err := batched.InsertBatch("movies", rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := single.Insert("movies", row); err != nil {
			t.Fatal(err)
		}
	}
	for _, title := range []string{"brazil", "leon", "inception"} {
		vb, err := batched.Model().Vector("movies", "title", title)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := single.Model().Vector("movies", "title", title)
		if err != nil {
			t.Fatal(err)
		}
		if cos := vec.Cosine(vb, vs); cos < 0.99 {
			t.Fatalf("%s: batch vs single cosine = %v", title, cos)
		}
	}
}

func TestInsertBatchPartialFailure(t *testing.T) {
	db := fixtureDB(t)
	sess, err := NewSession(db, fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]Value{
		{Int(10), Text("brazil"), Text("usa")},
		{Int(1), Text("dup pk"), Text("usa")}, // duplicate primary key
		{Int(12), Text("never"), Text("usa")},
	}
	err = sess.InsertBatch("movies", rows)
	var batch *BatchError
	if !errors.As(err, &batch) {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if batch.Committed != 1 || batch.Index != 1 {
		t.Fatalf("batch error = %+v", batch)
	}
	// The committed prefix is repaired and queryable; nothing after the
	// failure was stored.
	if _, err := sess.Model().Vector("movies", "title", "brazil"); err != nil {
		t.Fatal("committed prefix not repaired:", err)
	}
	if _, err := sess.Model().Vector("movies", "title", "never"); err == nil {
		t.Fatal("row after the failure was stored")
	}
	if sess.Stale() {
		t.Fatal("partial batch must not mark the session stale")
	}
}

func TestInsertBatchAllRejected(t *testing.T) {
	sess, err := NewSession(fixtureDB(t), fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	err = sess.InsertBatch("movies", [][]Value{{Int(1), Text("dup"), Text("usa")}})
	var batch *BatchError
	if !errors.As(err, &batch) || batch.Committed != 0 {
		t.Fatalf("err = %v, want *BatchError with 0 committed", err)
	}
	if err := sess.InsertBatch("movies", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestRepairFailureMarksStaleAndRecovers(t *testing.T) {
	sess, err := NewSession(fixtureDB(t), fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("injected repair failure")
	sess.repairHook = func() error { return boom }

	err = sess.Insert("movies", []Value{Int(10), Text("brazil"), Text("usa")})
	var repair *RepairError
	if !errors.As(err, &repair) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want *RepairError wrapping the injected failure", err)
	}
	if !sess.Stale() {
		t.Fatal("failed repair must mark the session stale")
	}
	// The row IS committed even though the model lags.
	if tbl, _ := sess.DB().Table("movies"); tbl.NumRows() != 5 {
		t.Fatalf("row not committed: %d rows", tbl.NumRows())
	}

	// Next write heals via a full re-solve: both the backlog row and the
	// new row become queryable, and staleness clears.
	sess.repairHook = nil
	if err := sess.Insert("movies", []Value{Int(11), Text("leon"), Text("france")}); err != nil {
		t.Fatal(err)
	}
	if sess.Stale() {
		t.Fatal("successful full repair must clear staleness")
	}
	for _, title := range []string{"brazil", "leon"} {
		if _, err := sess.Model().Vector("movies", "title", title); err != nil {
			t.Fatalf("%s not recovered: %v", title, err)
		}
	}
}

func TestMarkStaleForcesFullRepair(t *testing.T) {
	sess, err := NewSession(fixtureDB(t), fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sess.MarkStale()
	if !sess.Stale() {
		t.Fatal("MarkStale did not stick")
	}
	if err := sess.Insert("movies", []Value{Int(10), Text("brazil"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	if sess.Stale() {
		t.Fatal("insert after MarkStale must clear staleness via full repair")
	}
	if _, err := sess.Model().Vector("movies", "title", "brazil"); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatchNumericOnlyTable(t *testing.T) {
	// Rows without text values must not disturb the model.
	db := fixtureDB(t)
	db.MustExec(`CREATE TABLE ratings (id INT PRIMARY KEY, movie_id INT REFERENCES movies(id), stars INT)`)
	sess, err := NewSession(db, fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Model().NumValues()
	if err := sess.InsertBatch("ratings", [][]Value{
		{Int(1), Int(1), Int(5)},
		{Int(2), Int(3), Int(4)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := sess.Model().NumValues(); got != before {
		t.Fatalf("numeric-only insert changed values: %d -> %d", before, got)
	}
}

// TestSnapshotAfterDeltaInsertResumes pins the companion bug: a snapshot
// written AFTER incremental inserts stores values in write order, while
// resume re-extracts them column-major. ResumeSession must realign the
// store (dropping only the persisted ANN graph) instead of rejecting the
// snapshot as "database changed".
func TestSnapshotAfterDeltaInsertResumes(t *testing.T) {
	db := fixtureDB(t)
	sess, err := NewSession(db, fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Insert("movies", []Value{Int(10), Text("brazil"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	resumed, err := ResumeSession(db, fixtureEmbedding(), &buf)
	if err != nil {
		t.Fatalf("snapshot written after a delta insert failed to resume: %v", err)
	}
	// The solved vectors survived the realignment bitwise at float32
	// precision ...
	want, _ := sess.Model().Vector("movies", "title", "brazil")
	got, err := resumed.Model().Vector("movies", "title", "brazil")
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if float64(float32(want[j])) != got[j] {
			t.Fatalf("dim %d: %v vs %v", j, got[j], want[j])
		}
	}
	// ... the store is aligned with the re-extraction ...
	m := resumed.Model()
	for _, v := range m.ex.Values {
		key, _ := m.Key(m.ex.Categories[v.Category].Table, m.ex.Categories[v.Category].Column, v.Text)
		if id, ok := m.store.ID(key); !ok || id != v.ID {
			t.Fatalf("resumed store row %d holds value %d (%q): misaligned", id, v.ID, v.Text)
		}
	}
	// ... and the resumed session keeps maintaining incrementally.
	if err := resumed.Insert("movies", []Value{Int(11), Text("leon"), Text("france")}); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Model().Vector("movies", "title", "leon"); err != nil {
		t.Fatal(err)
	}
}
