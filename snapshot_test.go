package retro

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/retrodb/retro/internal/datagen"
)

// trainedWorld trains a session over a generated TMDB database with the
// ANN path forced on.
func trainedWorld(t testing.TB, movies int) (*datagen.TMDBWorld, *Session) {
	t.Helper()
	w := datagen.TMDB(datagen.TMDBConfig{Movies: movies, Dim: 16, Seed: 1})
	cfg := Defaults()
	cfg.ANNThreshold = 1
	cfg.TrackLoss = true
	sess, err := NewSession(w.DB, w.Embedding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.Model().Store().WarmANN()
	return w, sess
}

func snapshotBytes(t testing.TB, sess *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sampleValues pulls some (table, column, text) triples out of the DB.
func sampleValues(t testing.TB, w *datagen.TMDBWorld, n int) [][3]string {
	t.Helper()
	titles, err := w.DB.QueryText(`SELECT title FROM movies`)
	if err != nil || len(titles) == 0 {
		t.Fatalf("no titles (err=%v)", err)
	}
	names, err := w.DB.QueryText(`SELECT name FROM persons`)
	if err != nil || len(names) == 0 {
		t.Fatalf("no persons (err=%v)", err)
	}
	var out [][3]string
	for i := 0; i < n && i < len(titles); i++ {
		out = append(out, [3]string{"movies", "title", titles[i]})
	}
	for i := 0; i < n && i < len(names); i++ {
		out = append(out, [3]string{"persons", "name", names[i]})
	}
	return out
}

// TestSnapshotModelRoundTrip checks the core serving invariant through
// the public API: a loaded model answers Vector and Neighbors (ANN and
// exact) identically to the model that wrote the snapshot — same keys,
// same neighbour order, scores and vectors equal at float32 precision.
func TestSnapshotModelRoundTrip(t *testing.T) {
	w, sess := trainedWorld(t, 40)
	model := sess.Model()
	loaded, err := LoadSnapshot(bytes.NewReader(snapshotBytes(t, sess)))
	if err != nil {
		t.Fatal(err)
	}

	if loaded.NumValues() != model.NumValues() {
		t.Fatalf("NumValues %d vs %d", loaded.NumValues(), model.NumValues())
	}
	if loaded.SnapshotInfo() == nil || !loaded.SnapshotInfo().HasIndex {
		t.Fatalf("snapshot info %+v", loaded.SnapshotInfo())
	}
	if model.SnapshotInfo() != nil {
		t.Fatal("trained model claims snapshot provenance")
	}
	if len(loaded.LossHistory()) != len(model.LossHistory()) {
		t.Fatalf("loss history %d vs %d entries", len(loaded.LossHistory()), len(model.LossHistory()))
	}

	for _, ref := range sampleValues(t, w, 10) {
		table, column, text := ref[0], ref[1], ref[2]
		origVec, err := model.Vector(table, column, text)
		if err != nil {
			t.Fatal(err)
		}
		gotVec, err := loaded.Vector(table, column, text)
		if err != nil {
			t.Fatalf("loaded model missing %v: %v", ref, err)
		}
		for j := range origVec {
			if gotVec[j] != float64(float32(origVec[j])) {
				t.Fatalf("%v dim %d: %g != float32(%g)", ref, j, gotVec[j], origVec[j])
			}
		}

		want, err := model.Neighbors(table, column, text, 5)
		if err != nil {
			t.Fatal(err)
		}
		have, err := loaded.Neighbors(table, column, text, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(have) {
			t.Fatalf("%v: %d vs %d neighbours", ref, len(have), len(want))
		}
		for i := range want {
			if want[i].Word != have[i].Word {
				t.Fatalf("%v rank %d: %q vs %q", ref, i, have[i].Word, want[i].Word)
			}
			if math.Abs(want[i].Score-have[i].Score) > 1e-5 {
				t.Fatalf("%v rank %d: score drift %g", ref, i, want[i].Score-have[i].Score)
			}
		}
	}

	// Unknown values still miss cleanly on the attached-DB-less model.
	if _, err := loaded.Vector("movies", "title", "no such film"); err == nil {
		t.Fatal("ghost value resolved")
	}
	if _, ok := loaded.Key("nope", "nope", "nope"); ok {
		t.Fatal("ghost key resolved")
	}
}

// TestSnapshotExactPathRoundTrip repeats the invariant with ANN disabled,
// so the exact scan path is what round-trips.
func TestSnapshotExactPathRoundTrip(t *testing.T) {
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 30, Dim: 16, Seed: 2})
	cfg := Defaults()
	cfg.ANNThreshold = -1 // always exact
	sess, err := NewSession(w.DB, w.Embedding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(snapshotBytes(t, sess)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Store().ANNThreshold() != 0 {
		t.Fatalf("ANN threshold %d should persist as disabled", loaded.Store().ANNThreshold())
	}
	if loaded.SnapshotInfo().HasIndex {
		t.Fatal("exact-only snapshot carries an index")
	}
	for _, ref := range sampleValues(t, w, 5) {
		want, err := sess.Model().Neighbors(ref[0], ref[1], ref[2], 4)
		if err != nil {
			t.Fatal(err)
		}
		have, err := loaded.Neighbors(ref[0], ref[1], ref[2], 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i].Word != have[i].Word {
				t.Fatalf("%v rank %d: %q vs %q", ref, i, have[i].Word, want[i].Word)
			}
		}
	}
}

// TestSnapshotAnalogyRoundTrip covers the third read endpoint's
// underlying query.
func TestSnapshotAnalogyRoundTrip(t *testing.T) {
	w, sess := trainedWorld(t, 40)
	loaded, err := LoadSnapshot(bytes.NewReader(snapshotBytes(t, sess)))
	if err != nil {
		t.Fatal(err)
	}
	refs := sampleValues(t, w, 3)
	keys := make([]string, 3)
	for i := 0; i < 3; i++ {
		k, ok := sess.Model().Key(refs[i][0], refs[i][1], refs[i][2])
		if !ok {
			t.Fatalf("no key for %v", refs[i])
		}
		keys[i] = k
	}
	want, err := sess.Model().Store().Analogy(keys[0], keys[1], keys[2], 5)
	if err != nil {
		t.Fatal(err)
	}
	have, err := loaded.Store().Analogy(keys[0], keys[1], keys[2], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(have) {
		t.Fatalf("analogy: %d vs %d matches", len(have), len(want))
	}
	for i := range want {
		if want[i].Word != have[i].Word {
			t.Fatalf("analogy rank %d: %q vs %q", i, have[i].Word, want[i].Word)
		}
	}
}

// TestResumeSession verifies the full serving path: a resumed session
// keeps the deserialised index, supports incremental inserts (repaired
// values re-linked in place in the loaded HNSW graph), and tracks the
// equivalent never-snapshotted session.
func TestResumeSession(t *testing.T) {
	_, sess := trainedWorld(t, 40)
	raw := snapshotBytes(t, sess)
	// A second, bit-identical world (datagen is deterministic by seed)
	// stands in for the fresh process that boots from the snapshot.
	w2 := datagen.TMDB(datagen.TMDBConfig{Movies: 40, Dim: 16, Seed: 1})
	resumed, err := ResumeSession(w2.DB, w2.Embedding, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Model().Store().ANNIndex() == nil {
		t.Fatal("resumed session lost the deserialised index")
	}
	if resumed.Model().NumValues() != sess.Model().NumValues() {
		t.Fatalf("NumValues %d vs %d", resumed.Model().NumValues(), sess.Model().NumValues())
	}

	// Insert through both sessions; both must pick the value up and keep
	// answering with a live (not stale) index.
	for i := 0; i < 3; i++ {
		row := benchMovieRow(90_000+i, fmt.Sprintf("resumed premiere %d", i))
		row[7] = Int(0) // director_id
		if err := sess.Insert("movies", row); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Insert("movies", row); err != nil {
			t.Fatalf("insert %d into resumed session: %v", i, err)
		}
	}
	// The repaired vectors start from float32-rounded carry-overs in the
	// resumed session, so mutually near-identical inserts can swap ranks
	// at equal scores; compare neighbour sets and scores, not order.
	for i := 0; i < 3; i++ {
		title := fmt.Sprintf("resumed premiere %d", i)
		want, err := sess.Model().Neighbors("movies", "title", title, 5)
		if err != nil {
			t.Fatal(err)
		}
		have, err := resumed.Model().Neighbors("movies", "title", title, 5)
		if err != nil {
			t.Fatalf("resumed neighbours of %q: %v", title, err)
		}
		if len(want) != len(have) {
			t.Fatalf("%q: %d vs %d neighbours", title, len(have), len(want))
		}
		wantScores := map[string]float64{}
		for _, m := range want {
			wantScores[m.Word] = m.Score
		}
		for _, m := range have {
			ws, ok := wantScores[m.Word]
			if !ok {
				t.Fatalf("%q: resumed session surfaced %q, trained session did not", title, m.Word)
			}
			if math.Abs(ws-m.Score) > 1e-3 {
				t.Fatalf("%q neighbour %q: score %g vs %g", title, m.Word, m.Score, ws)
			}
		}
	}
	// The loaded graph was maintained in place, not rebuilt: the inserts
	// above re-linked their repaired values within the deserialised index.
	if resumed.Model().Store().ANNIndex() == nil {
		t.Fatal("index discarded by post-resume inserts")
	}
}

// TestResumeSessionRelabelsGraph: a snapshot written after inserts holds
// its values in write order, so resuming renumbers the store into the
// extraction's order. The snapshot's graph follows the renumbering: it
// is relabelled and kept, equal by key to the writer's, not rebuilt.
func TestResumeSessionRelabelsGraph(t *testing.T) {
	_, sess := trainedWorld(t, 40)
	w2 := datagen.TMDB(datagen.TMDBConfig{Movies: 40, Dim: 16, Seed: 1})
	for i := 0; i < 3; i++ {
		row := benchMovieRow(90_000+i, fmt.Sprintf("relabelled premiere %d", i))
		row[7] = Int(0) // director_id
		if err := sess.Insert("movies", row); err != nil {
			t.Fatal(err)
		}
		if _, err := w2.DB.Insert("movies", row); err != nil {
			t.Fatal(err)
		}
	}
	writer := sess.Model().Store()
	writer.WarmANN()
	resumed, err := ResumeSession(w2.DB, w2.Embedding, bytes.NewReader(snapshotBytes(t, sess)))
	if err != nil {
		t.Fatal(err)
	}
	store := resumed.Model().Store()
	if slices.Equal(store.Words(), writer.Words()) {
		t.Fatal("resume kept the writer's row order; the test does not renumber")
	}
	if store.ANNIndex() == nil {
		t.Fatal("resume dropped the snapshot's graph")
	}
	if graphByKey(t, store) != graphByKey(t, writer) {
		t.Fatal("the relabelled graph differs from the writer's by key")
	}
}

// TestResumeSessionRejectsDrift: resuming against a database that gained
// rows after the snapshot was written must fail loudly.
func TestResumeSessionRejectsDrift(t *testing.T) {
	w, sess := trainedWorld(t, 30)
	raw := snapshotBytes(t, sess)
	if _, err := w.DB.Exec(
		`INSERT INTO movies (id, title, original_language, director_id) VALUES (95000, 'post snapshot film', 'english', 0)`); err != nil {
		t.Fatal(err)
	}
	_, err := ResumeSession(w.DB, w.Embedding, bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "database changed") {
		t.Fatalf("drifted database accepted: %v", err)
	}
}

// TestResumeSessionWithExcludes: extraction exclusions are part of the
// trained vocabulary's definition, so they must persist through the
// snapshot — otherwise resuming re-extracts the excluded columns and the
// vocabularies can never match.
func TestResumeSessionWithExcludes(t *testing.T) {
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 30, Dim: 16, Seed: 3})
	cfg := Defaults()
	cfg.ExcludeColumns = []string{"movies.overview"}
	sess, err := NewSession(w.DB, w.Embedding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.Model().Key("movies", "overview", "anything"); ok {
		t.Fatal("excluded column trained anyway")
	}
	raw := snapshotBytes(t, sess)

	info, err := ReadSnapshotInfo(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.ExcludeColumns) != 1 || info.ExcludeColumns[0] != "movies.overview" {
		t.Fatalf("exclusions not persisted: %v", info.ExcludeColumns)
	}

	w2 := datagen.TMDB(datagen.TMDBConfig{Movies: 30, Dim: 16, Seed: 3})
	resumed, err := ResumeSession(w2.DB, w2.Embedding, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("resume with persisted exclusions: %v", err)
	}
	if resumed.Model().NumValues() != sess.Model().NumValues() {
		t.Fatalf("NumValues %d vs %d", resumed.Model().NumValues(), sess.Model().NumValues())
	}
}

// TestReadSnapshotInfoIsCheap: introspection must not materialise the
// store or the graph, only verify and summarise.
func TestReadSnapshotInfo(t *testing.T) {
	_, sess := trainedWorld(t, 30)
	raw := snapshotBytes(t, sess)
	info, err := ReadSnapshotInfo(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.NumValues != sess.Model().NumValues() || !info.HasIndex || info.Version != SnapshotFormatVersion {
		t.Fatalf("info %+v", info)
	}
	// Corruption is still caught (checksums are verified even though the
	// payloads are not decoded).
	bad := append([]byte{}, raw...)
	bad[len(bad)/2] ^= 0x10
	if _, err := ReadSnapshotInfo(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt snapshot accepted by ReadSnapshotInfo")
	}
}

// TestResumeSessionRejectsDimMismatch guards against pairing a snapshot
// with the wrong base embedding.
func TestResumeSessionRejectsDimMismatch(t *testing.T) {
	w, sess := trainedWorld(t, 30)
	raw := snapshotBytes(t, sess)
	wrongBase := NewEmbedding(8)
	wrongBase.Add("x", make([]float64, 8))
	if _, err := ResumeSession(w.DB, wrongBase, bytes.NewReader(raw)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}
