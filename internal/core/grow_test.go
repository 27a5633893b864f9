package core

import (
	"fmt"
	"sort"
	"testing"

	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/reldb"
	"github.com/retrodb/retro/internal/tokenize"
	"github.com/retrodb/retro/internal/vec"
)

// growFixture builds a movie database with every relation kind, its
// extraction, problem and tokenizer.
func growFixture(t *testing.T) (*reldb.DB, *extract.Extraction, *Problem, *tokenize.Tokenizer) {
	t.Helper()
	db := reldb.New()
	stmts := []string{
		`CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, country TEXT)`,
		`CREATE TABLE reviews (id INT PRIMARY KEY, movie_id INT REFERENCES movies(id), body TEXT)`,
		`CREATE TABLE genres (id INT PRIMARY KEY, name TEXT)`,
		`CREATE TABLE movie_genres (movie_id INT REFERENCES movies(id), genre_id INT REFERENCES genres(id))`,
		`INSERT INTO movies VALUES (1, 'inception', 'usa'), (2, 'godfather', 'usa'), (3, 'amelie', 'france')`,
		`INSERT INTO reviews VALUES (1, 1, 'dream'), (2, 3, 'paris')`,
		`INSERT INTO genres VALUES (1, 'thriller'), (2, 'crime')`,
		`INSERT INTO movie_genres VALUES (1, 1), (2, 2)`,
	}
	for _, s := range stmts {
		db.MustExec(s)
	}
	ex, err := extract.FromDB(db, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := embed.NewStore(3)
	for i, w := range []string{"inception", "godfather", "amelie", "usa", "france",
		"dream", "paris", "thriller", "crime", "brazil", "gilliam", "satire"} {
		v := []float64{float64(i%5) - 2, float64(i%3) - 1, float64(i%7) / 3}
		store.Add(w, v)
	}
	tok := tokenize.New(store)
	return db, ex, BuildProblem(ex, tok), tok
}

// insertAndGrow commits rows, applies the extraction delta and grows the
// problem, returning the report.
func insertAndGrow(t *testing.T, db *reldb.DB, ex *extract.Extraction, p *Problem, tok *tokenize.Tokenizer, table string, rows [][]reldb.Value) *GrowthReport {
	t.Helper()
	var ids []int
	for _, row := range rows {
		id, err := db.Insert(table, row)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	d, err := ex.ApplyInserts(db, table, ids, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := GrowProblem(p, ex, tok, d)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// requireProblemsEqual compares a grown problem against a freshly built
// one structurally: same nodes, same per-group degrees and memberships
// (groups matched by name since ids may differ), same weights inputs.
func requireProblemsEqual(t *testing.T, grown, fresh *Problem, ex *extract.Extraction) {
	t.Helper()
	if grown.N != fresh.N {
		t.Fatalf("N: grown %d fresh %d", grown.N, fresh.N)
	}
	if err := grown.Validate(); err != nil {
		t.Fatalf("grown problem invalid: %v", err)
	}
	// Node identity: labels and categories must agree (ids are shared
	// because both derive from the same extraction).
	for i := 0; i < grown.N; i++ {
		if grown.Labels[i] != fresh.Labels[i] || grown.CategoryOf[i] != fresh.CategoryOf[i] {
			t.Fatalf("node %d: grown (%q, %d) fresh (%q, %d)",
				i, grown.Labels[i], grown.CategoryOf[i], fresh.Labels[i], fresh.CategoryOf[i])
		}
		if vec.SquaredDistance(grown.W0.Row(i), fresh.W0.Row(i)) != 0 {
			t.Fatalf("node %d W0 differs", i)
		}
	}
	// Groups matched by name. Edge sets, counts and the cached mr must
	// agree.
	freshByName := map[string]*Group{}
	for gi := range fresh.Groups {
		freshByName[fresh.Groups[gi].Name] = &fresh.Groups[gi]
	}
	if len(grown.Groups) != len(fresh.Groups) {
		t.Fatalf("groups: grown %d fresh %d", len(grown.Groups), len(fresh.Groups))
	}
	for gi := range grown.Groups {
		g := &grown.Groups[gi]
		f := freshByName[g.Name]
		if f == nil {
			t.Fatalf("group %q missing from fresh problem", g.Name)
		}
		if g.NumEdges() != f.NumEdges() || g.SourceCount != f.SourceCount || g.TargetCount != f.TargetCount || g.MaxRel != f.MaxRel {
			t.Fatalf("group %q: edges %d/%d sources %d/%d targets %d/%d maxRel %d/%d",
				g.Name, g.NumEdges(), f.NumEdges(), g.SourceCount, f.SourceCount,
				g.TargetCount, f.TargetCount, g.MaxRel, f.MaxRel)
		}
		for i := 0; i < grown.N; i++ {
			if g.OutDeg(i) != f.OutDeg(i) {
				t.Fatalf("group %q node %d: outdeg %d vs %d", g.Name, i, g.OutDeg(i), f.OutDeg(i))
			}
			gt := targetsOf(g, i)
			ft := targetsOf(f, i)
			for k := range gt {
				if gt[k] != ft[k] {
					t.Fatalf("group %q node %d: targets %v vs %v", g.Name, i, gt, ft)
				}
			}
		}
	}
	for i := 0; i < grown.N; i++ {
		if grown.NumRelTypes[i] != fresh.NumRelTypes[i] {
			t.Fatalf("node %d NumRelTypes: %d vs %d", i, grown.NumRelTypes[i], fresh.NumRelTypes[i])
		}
	}
	// Centroids: refresh every node of the grown problem and compare.
	all := make([]int, grown.N)
	for i := range all {
		all[i] = i
	}
	grown.RefreshCentroids(all)
	for i := 0; i < grown.N; i++ {
		if vec.SquaredDistance(grown.Centroids.Row(i), fresh.Centroids.Row(i)) > 1e-24 {
			t.Fatalf("node %d centroid: %v vs %v", i, grown.Centroids.Row(i), fresh.Centroids.Row(i))
		}
	}
}

func targetsOf(g *Group, i int) []int {
	base, extra := g.TargetLists(i)
	out := make([]int, 0, len(base)+len(extra))
	for _, j := range base {
		out = append(out, int(j))
	}
	for _, j := range extra {
		out = append(out, int(j))
	}
	sort.Ints(out)
	return out
}

func TestGrowProblemMatchesRebuild(t *testing.T) {
	db, ex, p, tok := growFixture(t)

	// Mixed batch: new movie (new title, shared country), a review of it
	// (PK-FK), and a link row between existing values (n:m).
	rep := insertAndGrow(t, db, ex, p, tok, "movies", [][]reldb.Value{
		{reldb.Int(4), reldb.Text("brazil"), reldb.Text("france")},
		{reldb.Int(5), reldb.Text("gilliam"), reldb.Text("usa")},
	})
	if len(rep.NewNodes) != 2 {
		t.Fatalf("new nodes = %v", rep.NewNodes)
	}
	insertAndGrow(t, db, ex, p, tok, "reviews", [][]reldb.Value{
		{reldb.Int(3), reldb.Int(4), reldb.Text("satire")},
	})
	insertAndGrow(t, db, ex, p, tok, "movie_genres", [][]reldb.Value{
		{reldb.Int(4), reldb.Int(2)},
	})

	fresh := BuildProblem(ex, tok)
	requireProblemsEqual(t, p, fresh, ex)
}

func TestGrowProblemManyBatchesWithCompaction(t *testing.T) {
	db, ex, p, tok := growFixture(t)
	// Enough single-row growths to trip the overflow compaction threshold
	// repeatedly.
	for i := 0; i < 200; i++ {
		insertAndGrow(t, db, ex, p, tok, "movies", [][]reldb.Value{
			{reldb.Int(int64(100 + i)), reldb.Text(fmt.Sprintf("film %d", i)), reldb.Text("usa")},
		})
	}
	fresh := BuildProblem(ex, tok)
	requireProblemsEqual(t, p, fresh, ex)
}

func TestGrownProblemRepairApproximatesFullSolve(t *testing.T) {
	db, ex, p, tok := growFixture(t)
	h := DefaultRN()
	w := SolveRN(p, h, SolveOptions{}).W.Clone()
	st := NewIncrementalState(p, w)

	rep := insertAndGrow(t, db, ex, p, tok, "movies", [][]reldb.Value{
		{reldb.Int(4), reldb.Text("brazil"), reldb.Text("usa")},
	})
	// Bring W up to the new size with the W0 initialisation, as the
	// session does through the store.
	w.GrowRows(p.N)
	for _, id := range rep.NewNodes {
		copy(w.Row(id), p.W0.Row(id))
	}
	st.Grow(p, w, rep)
	touched := AffectedNodesBudget(p, rep.Seeds, 2, 0)
	p.RefreshCentroids(touched)
	UpdateIncremental(p, w, st, touched, h, RN, IncrementalOptions{MaxIterations: 200, Tolerance: 1e-12})

	full := SolveRN(BuildProblem(ex, tok), h, SolveOptions{}).W
	brazil, ok := ex.Lookup("movies", "title", "brazil")
	if !ok {
		t.Fatal("brazil missing")
	}
	if cos := vec.Cosine(w.Row(brazil), full.Row(brazil)); cos < 0.95 {
		t.Fatalf("incremental vs full cosine = %v", cos)
	}
}

func TestIncrementalStateMatchesStatelessRepair(t *testing.T) {
	_, _, p, _ := growFixture(t)
	h := Hyperparams{Alpha: 1, Beta: 1, Gamma: 3, Delta: 1, Iterations: 50}
	full := SolveRN(p, h, SolveOptions{})

	for _, variant := range []Variant{RN, RO} {
		a := full.W.Clone()
		b := full.W.Clone()
		vec.Fill(a.Row(0), 7)
		vec.Fill(b.Row(0), 7)
		dirty := []int{0, 1, 2}
		st := NewIncrementalState(p, a)
		UpdateIncremental(p, a, st, dirty, h, variant, IncrementalOptions{MaxIterations: 120, Tolerance: 1e-12})
		// The reference sums every group from scratch on each call.
		UpdateIncremental(p, b, NewIncrementalState(p, b), dirty, h, variant, IncrementalOptions{MaxIterations: 120, Tolerance: 1e-12})
		if !a.Equal(b, 1e-9) {
			t.Fatalf("%v: maintained state diverges from stateless repair", variant)
		}
	}
}

func TestAffectedNodesBudget(t *testing.T) {
	_, _, p, _ := growFixture(t)
	seeds := []int{0}
	unbounded := AffectedNodesBudget(p, seeds, 4, 0)
	if len(unbounded) < 3 {
		t.Fatalf("expansion too small to test the budget: %v", unbounded)
	}
	capped := AffectedNodesBudget(p, seeds, 4, 2)
	if len(capped) != 2 {
		t.Fatalf("budget 2 returned %d nodes: %v", len(capped), capped)
	}
	if capped[0] != 0 {
		t.Fatalf("seed not first: %v", capped)
	}
	// Seeds are always kept, even above the budget.
	many := AffectedNodesBudget(p, []int{0, 1, 2, 3}, 2, 2)
	if len(many) != 4 {
		t.Fatalf("seeds dropped under budget: %v", many)
	}
	// The budgeted prefix is a prefix of the unbounded BFS order.
	for i, id := range capped {
		if unbounded[i] != id {
			t.Fatalf("budgeted result is not a BFS prefix: %v vs %v", capped, unbounded)
		}
	}
}
