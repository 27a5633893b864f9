package retro

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/retrodb/retro/internal/datagen"
	"github.com/retrodb/retro/internal/vec"
)

func fixtureDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	stmts := []string{
		`CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, country TEXT)`,
		`INSERT INTO movies VALUES
			(1, 'inception', 'usa'),
			(2, 'godfather', 'usa'),
			(3, 'amelie', 'france'),
			(4, 'zorgon', 'france')`,
	}
	for _, s := range stmts {
		db.MustExec(s)
	}
	return db
}

func fixtureEmbedding() *Embedding {
	e := NewEmbedding(4)
	e.Add("inception", []float64{1, 0.2, 0, 0})
	e.Add("godfather", []float64{0.8, -0.3, 0, 0.1})
	e.Add("amelie", []float64{-0.5, 0.9, 0.2, 0})
	e.Add("usa", []float64{0.6, -0.8, 0.1, 0})
	e.Add("france", []float64{-0.9, 0.4, 0, 0.2})
	return e
}

func TestRetrofitEndToEnd(t *testing.T) {
	for _, variant := range []Variant{RO, RN} {
		cfg := Defaults()
		cfg.Variant = variant
		model, err := Retrofit(fixtureDB(t), fixtureEmbedding(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if model.NumValues() != 6 {
			t.Fatalf("%v: values = %d", variant, model.NumValues())
		}
		// The OOV title (zorgon, produced in france) ends up closer to
		// france than to usa.
		z, err := model.Vector("movies", "title", "zorgon")
		if err != nil {
			t.Fatal(err)
		}
		fr, _ := model.Vector("movies", "country", "france")
		us, _ := model.Vector("movies", "country", "usa")
		if vec.SquaredDistance(z, fr) >= vec.SquaredDistance(z, us) {
			t.Fatalf("%v: OOV value not placed relationally", variant)
		}
	}
}

func TestRetrofitErrors(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INT)`) // no text columns
	if _, err := Retrofit(db, fixtureEmbedding(), Defaults()); err == nil {
		t.Fatal("no-text database accepted")
	}
	if _, err := Retrofit(fixtureDB(t), fixtureEmbedding(), Config{Variant: RN}); err != nil {
		t.Fatal(err)
	}
}

// TestRetrofitRejectsUnknownVariant: only RO and RN train. Any other
// value is refused up front, in the words the snapshot decoder uses, so
// no model can be written that LoadSnapshot would then refuse.
func TestRetrofitRejectsUnknownVariant(t *testing.T) {
	for _, v := range []Variant{2, 7, 255} {
		_, err := Retrofit(fixtureDB(t), fixtureEmbedding(), Config{Variant: v})
		if want := fmt.Sprintf("unknown solver variant %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Variant(%d): err = %v, want one containing %q", v, err, want)
		}
	}
}

func TestVectorLookupErrors(t *testing.T) {
	model, err := Retrofit(fixtureDB(t), fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Vector("movies", "title", "missing"); err == nil {
		t.Fatal("missing value accepted")
	}
	if _, err := model.Vector("nope", "title", "inception"); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestNeighbors(t *testing.T) {
	model, err := Retrofit(fixtureDB(t), fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.Neighbors("movies", "title", "inception", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("neighbors = %d", len(got))
	}
	// Self must be excluded.
	selfKey, _ := model.Key("movies", "title", "inception")
	for _, m := range got {
		if m.Word == selfKey {
			t.Fatal("self returned as neighbour")
		}
	}
	if _, err := model.Neighbors("movies", "title", "missing", 2); err == nil {
		t.Fatal("missing value accepted")
	}
}

// TestParallelSolveMatchesSequential: every Config.Parallel setting runs
// the same arithmetic — byte-identical store matrices and equal loss
// histories. 10 000 workers exceed the world's value count, which takes
// the row splitter's one-range fallback.
func TestParallelSolveMatchesSequential(t *testing.T) {
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 60, Dim: 16, Seed: 3})
	for _, variant := range []Variant{RO, RN} {
		cfg := Defaults()
		cfg.Variant = variant
		cfg.TrackLoss = true
		seq, err := Retrofit(w.DB, w.Embedding, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.LossHistory()) == 0 || seq.Store().Len() >= 10000 {
			t.Fatalf("%v: %d losses over %d values", variant, len(seq.LossHistory()), seq.Store().Len())
		}
		for _, parallel := range []int{1, 3, -1, 10000} {
			cfg.Parallel = parallel
			par, err := Retrofit(w.DB, w.Embedding, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !par.Store().Matrix().Equal(seq.Store().Matrix(), 0) {
				t.Errorf("%v: Parallel=%d vectors differ from sequential", variant, parallel)
			}
			if !reflect.DeepEqual(par.LossHistory(), seq.LossHistory()) {
				t.Errorf("%v: Parallel=%d loss history differs from sequential", variant, parallel)
			}
		}
	}
}

func TestCustomHyperparams(t *testing.T) {
	hp := Hyperparams{Alpha: 2, Beta: 1, Gamma: 1, Delta: 0, Iterations: 5}
	cfg := Config{Variant: RO, Hyperparams: &hp, TrackLoss: true}
	model, err := Retrofit(fixtureDB(t), fixtureEmbedding(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.LossHistory()) != 5 {
		t.Fatalf("loss history = %d entries", len(model.LossHistory()))
	}
	for i := 1; i < 5; i++ {
		if model.LossHistory()[i] > model.LossHistory()[i-1]+1e-9 {
			t.Fatal("loss not monotone under convex params")
		}
	}
}

func TestExcludeColumns(t *testing.T) {
	cfg := Defaults()
	cfg.ExcludeColumns = []string{"movies.country"}
	model, err := Retrofit(fixtureDB(t), fixtureEmbedding(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model.NumValues() != 4 {
		t.Fatalf("values = %d, want 4 titles only", model.NumValues())
	}
	if _, err := model.Vector("movies", "country", "usa"); err == nil {
		t.Fatal("excluded column value present")
	}
}

func TestTrainDeepWalkAndCombine(t *testing.T) {
	db := fixtureDB(t)
	model, err := Retrofit(db, fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	dw, err := TrainDeepWalk(db, Defaults(), DeepWalkConfig{Dim: 8, WalksPerNode: 3, WalkLength: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dw.Len() != model.NumValues() {
		t.Fatalf("DW store size = %d", dw.Len())
	}
	combined, err := Combine(model.Store(), dw)
	if err != nil {
		t.Fatal(err)
	}
	if combined.Dim() != model.Store().Dim()+8 {
		t.Fatalf("combined dim = %d", combined.Dim())
	}
	// Keys align across stores.
	key, _ := model.Key("movies", "title", "amelie")
	if _, ok := combined.VectorOf(key); !ok {
		t.Fatal("combined store missing aligned key")
	}
}

func TestEmbeddingIORoundTripViaPublicAPI(t *testing.T) {
	model, err := Retrofit(fixtureDB(t), fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Store().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinaryEmbedding(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != model.Store().Len() {
		t.Fatal("round-trip lost values")
	}
}

func TestSessionIncrementalInsert(t *testing.T) {
	db := fixtureDB(t)
	sess, err := NewSession(db, fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Model().NumValues()
	if err := sess.Insert("movies", []Value{Int(5), Text("brazil"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	if sess.Model().NumValues() != before+1 {
		t.Fatalf("values = %d, want %d", sess.Model().NumValues(), before+1)
	}
	// The new title has a meaningful vector: closer to usa than france.
	b, err := sess.Model().Vector("movies", "title", "brazil")
	if err != nil {
		t.Fatal(err)
	}
	us, _ := sess.Model().Vector("movies", "country", "usa")
	fr, _ := sess.Model().Vector("movies", "country", "france")
	if vec.SquaredDistance(b, us) >= vec.SquaredDistance(b, fr) {
		t.Fatal("incrementally added value not placed relationally")
	}
	// Untouched values keep finite, unchanged-ish vectors.
	a, _ := sess.Model().Vector("movies", "title", "amelie")
	for _, v := range a {
		if math.IsNaN(v) {
			t.Fatal("NaN after incremental update")
		}
	}
}

func TestSessionIncrementalApproximatesFullSolve(t *testing.T) {
	// Insert via the session, then compare against a from-scratch solve
	// on the same data: the incremental result must be close for the
	// affected component.
	db := fixtureDB(t)
	sess, err := NewSession(db, fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Insert("movies", []Value{Int(5), Text("brazil"), Text("usa")}); err != nil {
		t.Fatal(err)
	}
	full, err := Retrofit(db, fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	inc, _ := sess.Model().Vector("movies", "title", "brazil")
	ful, _ := full.Vector("movies", "title", "brazil")
	cos := vec.Cosine(inc, ful)
	if cos < 0.95 {
		t.Fatalf("incremental vs full cosine = %v", cos)
	}
	// A full Resolve matches the from-scratch model exactly.
	if err := sess.Resolve(); err != nil {
		t.Fatal(err)
	}
	res, _ := sess.Model().Vector("movies", "title", "brazil")
	if vec.Cosine(res, ful) < 1-1e-12 {
		t.Fatal("Resolve diverges from fresh Retrofit")
	}
}

func TestSessionInsertRowAPI(t *testing.T) {
	db := fixtureDB(t)
	sess, err := NewSession(db, fixtureEmbedding(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Insert("movies", []Value{
		Int(6), Text("valerian"), Text("france"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Model().Vector("movies", "title", "valerian"); err != nil {
		t.Fatal(err)
	}
	// Constraint violations surface.
	if err := sess.Insert("movies", []Value{Int(6), Text("dup"), Text("usa")}); err == nil {
		t.Fatal("duplicate PK accepted")
	}
}
