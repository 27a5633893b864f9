package retro

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/retrodb/retro/internal/cpu"
)

// sessionGolden holds one line per write of TestGoldenSession's schedule:
// the case name and a SHA-256 prefix of the session state after it.
var sessionGolden = filepath.Join("testdata", "golden", "session.txt")

// TestGoldenSession pins the write path's output itself, where the other
// session tests only check relations between paths (batch against loop,
// incremental against a full solve). It runs a fixed schedule on the
// served world of session_relink_test.go — f32 rows, SQ8 codes, the index
// built up front — and after every write hashes each store row's float32
// bits, the graph and its codes (WriteTo + WriteQuantTo) and the repair's
// touched count. A change that means to leave the program as it is leaves
// testdata/golden/session.txt byte-identical; one that changes numbers on
// purpose regenerates it with
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenSession .
//
// and says which lines moved and why.
func TestGoldenSession(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the hashes are recorded on amd64: elsewhere Go may fuse multiply-adds into FMAs and round differently")
	}
	// The f64 dot kernels agree across SIMD levels only within a
	// tolerance, so the golden run is pinned to the scalar kernels.
	defer cpu.SetLevel(cpu.Active())
	cpu.SetLevel(cpu.Scalar)

	sess := servedSession(t)
	var got strings.Builder
	record := func(name string) {
		fmt.Fprintf(&got, "%s %s\n", name, sessionDigest(t, sess))
	}

	id := 90_000
	row := func() []Value {
		id++
		return benchMovieRow(id, fmt.Sprintf("golden premiere %d", id))
	}
	for i := 1; i <= 20; i++ {
		if err := sess.Insert("movies", row()); err != nil {
			t.Fatal(err)
		}
		record(fmt.Sprintf("insert-%02d", i))
	}

	batch := [][]Value{row(), row(), row(), row(), row()}
	if err := sess.InsertBatch("movies", batch); err != nil {
		t.Fatal(err)
	}
	record("batch")

	// The third row repeats the first one's primary key: the batch commits
	// and repairs its two-row prefix and reports the rejection.
	first := row()
	partial := [][]Value{first, row(), first, row()}
	var rejected *BatchError
	if err := sess.InsertBatch("movies", partial); !errors.As(err, &rejected) || rejected.Committed != 2 {
		t.Fatalf("partial batch: err = %v, want a *BatchError after 2 committed rows", err)
	}
	record("batch-rejected")

	sess.MarkStale()
	if err := sess.Insert("movies", row()); err != nil {
		t.Fatal(err)
	}
	if !sess.LastRepair().Full || sess.Stale() {
		t.Fatalf("insert on a stale session: repair %+v, stale %v; want a full re-solve", sess.LastRepair(), sess.Stale())
	}
	record("resolve")

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(sessionGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sessionGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(sessionGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if string(want) != got.String() {
		t.Errorf("session state differs from %s\ngot:\n%sgolden:\n%s", sessionGolden, got.String(), want)
	}
}

// sessionDigest hashes what a write leaves behind: every store row (its
// key and float32 bits, in id order), the graph and its codes, and how
// many nodes the last repair re-solved.
func sessionDigest(t *testing.T, sess *Session) string {
	t.Helper()
	store := sess.Model().Store()
	h := sha256.New()
	for id := 0; id < store.Len(); id++ {
		h.Write([]byte(store.Word(id)))
		for _, x := range store.Vector32(id) {
			writeUint(h, uint64(math.Float32bits(x)))
		}
	}
	// A full re-solve builds a new store whose index waits for the first
	// query; build it as that query would.
	store.WarmANN()
	h.Write(graphBytes(t, sess))
	writeUint(h, uint64(sess.LastRepair().Touched))
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func writeUint(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}
