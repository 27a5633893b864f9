package retro

import (
	"testing"

	"github.com/retrodb/retro/internal/datagen"
)

// TestSessionInsertRefreshesANN checks the incremental-maintenance
// contract of the serving path: after Session.Insert the model's ANN
// index must already contain the new value — maintained in place, not
// rebuilt — so Neighbors answered through HNSW include post-insert data
// at flat cost.
func TestSessionInsertRefreshesANN(t *testing.T) {
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 60, Dim: 16, Seed: 1})
	cfg := Defaults()
	cfg.ANNThreshold = 1 // force ANN even on this toy vocabulary
	sess, err := NewSession(w.DB, w.Embedding, cfg)
	if err != nil {
		t.Fatal(err)
	}

	titles, err := w.DB.QueryText(`SELECT title FROM movies`)
	if err != nil || len(titles) == 0 {
		t.Fatalf("no seed titles (err=%v)", err)
	}
	m := sess.Model()
	if _, err := m.Neighbors("movies", "title", titles[0], 3); err != nil {
		t.Fatal(err)
	}
	if m.Store().ANNIndex() == nil {
		t.Fatal("ANN index not built by Neighbors")
	}

	const newTitle = "a wholly new retrofit film"
	row := benchMovieRow(99001, newTitle)
	row[7] = Int(0) // director_id
	if err := sess.Insert("movies", row); err != nil {
		t.Fatal(err)
	}

	m2 := sess.Model()
	key, ok := m2.Key("movies", "title", newTitle)
	if !ok {
		t.Fatal("new value missing from model")
	}
	id, _ := m2.Store().ID(key)
	// Refresh either maintains the index in place (small repairs) or
	// marks it stale (when the repaired neighbourhood covers most of the
	// vocabulary, as on this toy fixture); either way, after WarmANN —
	// which the serving path runs on every insert — the index must hold
	// the inserted value.
	m2.Store().WarmANN()
	idx := m2.Store().ANNIndex()
	if idx == nil {
		t.Fatal("ANN index not available after insert + WarmANN")
	}
	if !idx.Contains(id) {
		t.Fatal("ANN index does not contain the inserted value")
	}
	nb, err := m2.Neighbors("movies", "title", newTitle, 3)
	if err != nil {
		t.Fatalf("post-insert Neighbors: %v", err)
	}
	if len(nb) == 0 {
		t.Fatal("post-insert Neighbors returned nothing")
	}

	// The previous model shares the updated store and stays queryable.
	if _, err := m.Neighbors("movies", "title", titles[0], 3); err != nil {
		t.Fatalf("pre-insert model broken by refresh: %v", err)
	}
}
