package datagen

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/tokenize"
	"github.com/retrodb/retro/internal/vec"
)

func TestWordMakerUnique(t *testing.T) {
	m := newWordMaker(rand.New(rand.NewSource(1)))
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		w := m.make()
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
		if len(w) < 4 {
			t.Fatalf("word too short: %q", w)
		}
	}
}

func TestVocabTopicsAndPools(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := NewVocab(16, rng)
	a := v.Topic("a")
	if len(a) != 16 {
		t.Fatalf("topic dim = %d", len(a))
	}
	if &v.Topic("a")[0] != &a[0] {
		t.Fatal("Topic should be cached")
	}
	words := v.Pool("p", "a", 50, 0.2, 0)
	if len(words) != 50 {
		t.Fatalf("pool size = %d", len(words))
	}
	// Pool is cached.
	if len(v.Pool("p", "a", 99, 0.2, 0)) != 50 {
		t.Fatal("Pool should be cached")
	}
	// Pool words cluster around their topic.
	hits := 0
	for _, w := range words {
		if vw, ok := v.Store.VectorOf(w); ok {
			if vec.Cosine(vw, a) > 0.5 {
				hits++
			}
		}
	}
	if hits < 40 {
		t.Fatalf("only %d/50 pool words near topic", hits)
	}
}

func TestVocabOOVRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := NewVocab(8, rng)
	words := v.Pool("p", "t", 200, 0.2, 0.4)
	oov := 0
	for _, w := range words {
		if v.IsOOV(w) {
			if _, ok := v.Store.VectorOf(w); ok {
				t.Fatal("OOV word present in store")
			}
			oov++
		}
	}
	if oov < 50 || oov > 120 {
		t.Fatalf("OOV count = %d of 200 at rate 0.4", oov)
	}
}

func TestVocabPhrases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := NewVocab(8, rng)
	p := v.AddPhrase([]string{"john", "wick"}, "t", 0.1)
	if p != "john_wick" {
		t.Fatalf("phrase = %q", p)
	}
	if _, ok := v.Store.VectorOf("john_wick"); !ok {
		t.Fatal("phrase missing from store")
	}
}

func TestMixedSentence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := NewVocab(8, rng)
	v.Pool("a", "ta", 10, 0.1, 0)
	v.Pool("b", "tb", 10, 0.1, 0)
	s := v.MixedSentence(50, []string{"a", "b"}, []float64{1, 1})
	if len(strings.Fields(s)) != 50 {
		t.Fatalf("sentence length = %d", len(strings.Fields(s)))
	}
}

func TestTMDBDeterministic(t *testing.T) {
	a := TMDB(TMDBConfig{Movies: 40, Seed: 9})
	b := TMDB(TMDBConfig{Movies: 40, Seed: 9})
	if a.DB.String() != b.DB.String() {
		t.Fatal("TMDB generation not deterministic")
	}
	if a.Embedding.Len() != b.Embedding.Len() {
		t.Fatal("embedding not deterministic")
	}
	c := TMDB(TMDBConfig{Movies: 40, Seed: 10})
	if a.DB.String() == c.DB.String() {
		t.Fatal("different seeds should differ")
	}
}

func TestTMDBSchemaShape(t *testing.T) {
	w := TMDB(TMDBConfig{Movies: 60, Seed: 1})
	// 8 base tables + 6 link tables.
	if w.DB.NumTables() != 14 {
		t.Fatalf("tables = %d", w.DB.NumTables())
	}
	if got := len(w.DB.LinkTables()); got != 6 {
		t.Fatalf("link tables = %d", got)
	}
	movies := w.DB.MustTable("movies")
	if movies.NumRows() != 60 {
		t.Fatalf("movies = %d", movies.NumRows())
	}
	// Referential integrity enforced during generation implies the world
	// is consistent; spot-check a join.
	res := w.DB.MustExec(`SELECT movies.id FROM movies JOIN persons ON movies.director_id = persons.id`)
	if len(res.Rows) != 60 {
		t.Fatalf("director join rows = %d", len(res.Rows))
	}
}

func TestTMDBLanguageDistribution(t *testing.T) {
	w := TMDB(TMDBConfig{Movies: 800, Seed: 2})
	english := 0
	for _, lang := range w.MovieLanguage {
		if lang == "english" {
			english++
		}
	}
	frac := float64(english) / float64(len(w.MovieLanguage))
	// The Fig. 12a mode baseline sits at ~71%; our latent mix must land
	// in that neighbourhood.
	if frac < 0.60 || frac < 0.5 {
		t.Fatalf("english share = %v, want ≈0.6-0.8", frac)
	}
	if frac > 0.85 {
		t.Fatalf("english share = %v, too dominant", frac)
	}
}

func TestTMDBDirectorLabels(t *testing.T) {
	w := TMDB(TMDBConfig{Movies: 300, Seed: 3})
	us, other := 0, 0
	for _, isUS := range w.DirectorUS {
		if isUS {
			us++
		} else {
			other++
		}
	}
	if us == 0 || other == 0 {
		t.Fatalf("degenerate citizenship labels: us=%d other=%d", us, other)
	}
	// Labels must NOT leak into the database (external label source).
	for _, tbl := range w.DB.Tables() {
		for _, col := range tbl.Columns {
			if strings.Contains(col.Name, "citizen") {
				t.Fatal("citizenship column leaked into the DB")
			}
		}
	}
}

func TestTMDBExtractionAndTokenization(t *testing.T) {
	w := TMDB(TMDBConfig{Movies: 50, Seed: 4})
	ex, err := extract.FromDB(w.DB, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumValues() < 200 {
		t.Fatalf("too few text values: %s", ex.Stats())
	}
	if len(ex.Relations) == 0 {
		t.Fatal("no relations extracted")
	}
	// n:m relations via link tables must exist.
	hasNM := false
	for _, r := range ex.Relations {
		if r.Kind == extract.ManyToMany {
			hasNM = true
		}
	}
	if !hasNM {
		t.Fatal("no n:m relation groups")
	}
	// Tokenization should find vectors for most values but not all (OOV).
	tok := tokenize.New(w.Embedding)
	invocab, oov := 0, 0
	for _, val := range ex.Values {
		if _, ok := tok.InitialVector(val.Text); ok {
			invocab++
		} else {
			oov++
		}
	}
	if invocab == 0 || oov == 0 {
		t.Fatalf("degenerate OOV split: in=%d oov=%d", invocab, oov)
	}
	if float64(oov)/float64(invocab+oov) > 0.5 {
		t.Fatalf("too much OOV: %d/%d", oov, invocab+oov)
	}
}

func TestTMDBBudgetRelationalSignal(t *testing.T) {
	w := TMDB(TMDBConfig{Movies: 400, Seed: 5})
	// Budgets of movies sharing a company should vary less than budgets
	// overall (the company tier drives them).
	res := w.DB.MustExec(`
		SELECT movies.budget, movie_companies.company_id
		FROM movies JOIN movie_companies ON movies.id = movie_companies.movie_id`)
	byCompany := map[int64][]float64{}
	var all []float64
	for _, row := range res.Rows {
		b, _ := row[0].AsFloat()
		byCompany[row[1].I] = append(byCompany[row[1].I], b)
		all = append(all, b)
	}
	within := 0.0
	groups := 0
	for _, budgets := range byCompany {
		if len(budgets) < 3 {
			continue
		}
		within += vec.StdDev(budgets)
		groups++
	}
	within /= float64(groups)
	if within >= vec.StdDev(all)*0.8 {
		t.Fatalf("company does not constrain budget: within=%v overall=%v", within, vec.StdDev(all))
	}
}

func TestGooglePlayShape(t *testing.T) {
	w := GooglePlay(GooglePlayConfig{Apps: 80, Seed: 1})
	// 6 base tables + 1 link table.
	if w.DB.NumTables() != 7 {
		t.Fatalf("tables = %d", w.DB.NumTables())
	}
	if len(w.DB.LinkTables()) != 1 {
		t.Fatalf("link tables = %d", len(w.DB.LinkTables()))
	}
	if w.DB.MustTable("apps").NumRows() != 80 {
		t.Fatal("app count wrong")
	}
	if len(w.CategoryNames) != 33 {
		t.Fatalf("categories = %d", len(w.CategoryNames))
	}
	if len(w.AppCategory) != 80 {
		t.Fatalf("ground truth size = %d", len(w.AppCategory))
	}
	// Reviews exist and reference apps.
	res := w.DB.MustExec(`SELECT reviews.app_id FROM reviews JOIN apps ON reviews.app_id = apps.id`)
	if len(res.Rows) < 80 {
		t.Fatalf("reviews = %d", len(res.Rows))
	}
}

func TestGooglePlayCategorySkewModest(t *testing.T) {
	w := GooglePlay(GooglePlayConfig{Apps: 1000, Seed: 2})
	counts := map[int]int{}
	for _, c := range w.AppCategory {
		counts[c]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	frac := float64(max) / 1000
	// Mode imputation must be poor (Fig. 12b) but not uniform-degenerate.
	if frac > 0.3 {
		t.Fatalf("mode class share = %v, too high", frac)
	}
	if len(counts) < 20 {
		t.Fatalf("only %d categories used", len(counts))
	}
}

func TestGooglePlayDeterministic(t *testing.T) {
	a := GooglePlay(GooglePlayConfig{Apps: 50, Seed: 3})
	b := GooglePlay(GooglePlayConfig{Apps: 50, Seed: 3})
	if a.DB.String() != b.DB.String() {
		t.Fatal("GooglePlay generation not deterministic")
	}
}

func TestGooglePlayExtractionWithImputationOptions(t *testing.T) {
	w := GooglePlay(GooglePlayConfig{Apps: 60, Seed: 4})
	// The Fig. 12b protocol: embeddings trained without the category
	// information and the genre relation.
	ex, err := extract.FromDB(w.DB, extract.Options{
		ExcludeColumns: []string{"categories.name", "genres.name"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.CategoryByName("categories.name"); ok {
		t.Fatal("category column still present")
	}
	// Review text must still be reachable.
	if _, ok := ex.CategoryByName("reviews.text"); !ok {
		t.Fatal("reviews lost")
	}
}
