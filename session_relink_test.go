package retro

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/retrodb/retro/internal/datagen"
)

// servedSession trains the world the way retro-serve runs it — float32
// rows, SQ8 codes, the index built up front — at a size where every
// repair re-solves a few hundred held values.
func servedSession(t testing.TB) *Session {
	t.Helper()
	return servedSessionOf(t, datagen.TMDBConfig{Movies: 150, Dim: 24, Seed: 3})
}

// servedSessionOf is servedSession on another generated world.
func servedSessionOf(t testing.TB, world datagen.TMDBConfig) *Session {
	t.Helper()
	w := datagen.TMDB(world)
	cfg := Defaults()
	cfg.ANNThreshold = 1
	cfg.Precision = F32
	cfg.Quantization = QuantSQ8
	sess, err := NewSession(w.DB, w.Embedding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.RepairBudget = 128 // below half the vocabulary: repairs maintain the index, never invalidate it
	sess.Model().Store().WarmANN()
	return sess
}

func graphBytes(t testing.TB, sess *Session) []byte {
	t.Helper()
	idx := sess.Model().Store().ANNIndex()
	if idx == nil {
		t.Fatal("no built index")
	}
	var graph, codes bytes.Buffer
	if _, err := idx.WriteTo(&graph); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteQuantTo(&codes); err != nil {
		t.Fatal(err)
	}
	return append(graph.Bytes(), codes.Bytes()...)
}

// TestSessionInsertsLeaveNoTombstones: a run of single-row inserts, each
// re-solving a neighbourhood of values the index already holds, moves
// those nodes in place. The index the session ends with is the one it
// started with — never rebuilt, no tombstone, one slot per non-zero value
// — and a second session fed the same rows holds the same graph byte for
// byte, frozen views in between or not, which is what lets a follower
// replaying the primary's log converge on the primary's index.
func TestSessionInsertsLeaveNoTombstones(t *testing.T) {
	a, b := servedSession(t), servedSession(t)
	if !bytes.Equal(graphBytes(t, a), graphBytes(t, b)) {
		t.Fatal("two sessions trained on the same world built different graphs")
	}
	store := a.Model().Store()
	slots := store.ANNIndex().Len()
	builtB := b.Model().Store().ANNIndex()

	moved, relinked := 0, 0
	for i := 0; i < 20; i++ {
		row := benchMovieRow(90_000+i, fmt.Sprintf("tombstone free premiere %d", i))
		// The server publishes a frozen view between writes, so each write
		// mutates a clone of the served graph; b writes in place.
		store.Freeze()
		if err := a.Insert("movies", row); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert("movies", row); err != nil {
			t.Fatal(err)
		}
		rep := a.LastRepair()
		if rep.Full || rep.Touched == 0 {
			t.Fatalf("insert %d: repair %+v, want an incremental repair", i, rep)
		}
		if rep.Relinked < rep.NewNodes || rep.Relinked > rep.Touched {
			t.Fatalf("insert %d: repair %+v re-linked outside [NewNodes, Touched]", i, rep)
		}
		relinked += rep.Relinked - rep.NewNodes
		moved += rep.Touched - rep.NewNodes
		slots += rep.NewNodes

		idx := store.ANNIndex()
		if idx == nil {
			t.Fatalf("insert %d left the index stale: it would be rebuilt", i)
		}
		if idx.Deleted() != 0 {
			t.Fatalf("insert %d left %d tombstones", i, idx.Deleted())
		}
		if idx.Len() != slots {
			t.Fatalf("insert %d: index holds %d ids, want %d (one per value)", i, idx.Len(), slots)
		}
	}
	if b.Model().Store().ANNIndex() != builtB {
		t.Fatal("the index was replaced during the inserts: it was rebuilt")
	}
	if moved == 0 {
		t.Fatal("no repair touched a held value: nothing was moved")
	}
	// On SQ8 a moved value is re-linked only when its code changed.
	t.Logf("%d of %d moved values re-linked", relinked, moved)
	if relinked == 0 || relinked == moved {
		t.Fatalf("%d of %d moved values re-linked: want some moves to keep their code and some to change it", relinked, moved)
	}
	nonZero := 0
	for id := 0; id < store.Len(); id++ {
		if !isZero(store.Vector(id)) {
			nonZero++
		}
	}
	if slots != nonZero {
		t.Fatalf("index holds %d slots for %d non-zero values", slots, nonZero)
	}
	if !bytes.Equal(graphBytes(t, a), graphBytes(t, b)) {
		t.Fatal("the same insert sequence produced different graphs in two sessions")
	}
}

func isZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestSessionMaintainedRecall: after a run of single-row inserts on the
// served world — every repair moving a few hundred held values, most of
// them within their SQ8 code, which keeps their links — the maintained
// index serves the recall@10 of one built fresh from the final store.
func TestSessionMaintainedRecall(t *testing.T) {
	inserts := 120
	if testing.Short() || raceEnabled {
		inserts = 40
	}
	sess := servedSessionOf(t, datagen.TMDBConfig{Movies: 400, Dim: 48, Seed: 5})
	store := sess.Model().Store()
	built := store.ANNIndex()
	touched, relinked := 0, 0
	for i := 0; i < inserts; i++ {
		store.Freeze() // as the server publishes between writes
		if err := sess.Insert("movies", benchMovieRow(91_000+i, fmt.Sprintf("maintained premiere %d", i))); err != nil {
			t.Fatal(err)
		}
		rep := sess.LastRepair()
		touched += rep.Touched
		relinked += rep.Relinked
	}
	// A maintained index has linked what the build did plus what every
	// repair reported; a rebuilt one would have started its count over.
	if idx := store.ANNIndex(); idx == nil || idx.Linked() != built.Linked()+uint64(relinked) {
		t.Fatal("the index was not maintained through the inserts, or the repairs misreported their re-links")
	}
	fresh := store.Clone()
	fresh.WarmANN()
	got, want := recallAt10(store), recallAt10(fresh)
	t.Logf("%d inserts re-linked %d of %d re-solved values; recall@10 maintained %.4f, fresh build %.4f", inserts, relinked, touched, got, want)
	if got < want-0.005 {
		t.Fatalf("maintained recall@10 %.4f is more than 0.005 below a fresh build's %.4f", got, want)
	}
}
