package reldb

import (
	"strings"
	"testing"
)

func sqlFixture(t *testing.T) *DB {
	t.Helper()
	db := New()
	stmts := []string{
		`CREATE TABLE movies (id INT PRIMARY KEY, title TEXT NOT NULL, budget FLOAT, language TEXT)`,
		`CREATE TABLE persons (id INT PRIMARY KEY, name TEXT)`,
		`CREATE TABLE directed_by (movie_id INT REFERENCES movies(id), person_id INT REFERENCES persons(id))`,
		`INSERT INTO movies VALUES (1, 'Brazil', 15000000, 'en'), (2, 'Alien', 11000000, 'en'), (3, 'Amelie', 10000000, 'fr')`,
		`INSERT INTO persons VALUES (10, 'Terry Gilliam'), (11, 'Ridley Scott'), (12, 'Jean-Pierre Jeunet')`,
		`INSERT INTO directed_by VALUES (1, 10), (2, 11), (3, 12)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%v\n  in: %s", err, s)
		}
	}
	return db
}

func TestExecCreateInsertSelect(t *testing.T) {
	db := sqlFixture(t)
	res := db.MustExec(`SELECT title FROM movies WHERE language = 'en' ORDER BY title`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "Alien" || res.Rows[1][0].Str != "Brazil" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "movies.title" {
		t.Fatalf("header = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := sqlFixture(t)
	res := db.MustExec(`SELECT * FROM persons ORDER BY id LIMIT 2`)
	if len(res.Rows) != 2 || len(res.Columns) != 2 {
		t.Fatalf("star select = %v / %v", res.Columns, res.Rows)
	}
	if res.Columns[0] != "persons.id" {
		t.Fatalf("headers = %v", res.Columns)
	}
}

func TestSelectJoinChain(t *testing.T) {
	db := sqlFixture(t)
	res := db.MustExec(`
		SELECT movies.title, persons.name
		FROM movies
		JOIN directed_by ON movies.id = directed_by.movie_id
		JOIN persons ON persons.id = directed_by.person_id
		ORDER BY movies.title`)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "Alien" || res.Rows[0][1].Str != "Ridley Scott" {
		t.Fatalf("join content = %v", res.Rows[0])
	}
}

func TestSelectJoinAliases(t *testing.T) {
	db := sqlFixture(t)
	res := db.MustExec(`
		SELECT m.title AS t, p.name AS director
		FROM movies m
		JOIN directed_by d ON m.id = d.movie_id
		JOIN persons p ON p.id = d.person_id
		WHERE m.language = 'fr'`)
	if len(res.Rows) != 1 || res.Rows[0][1].Str != "Jean-Pierre Jeunet" {
		t.Fatalf("alias join = %v", res.Rows)
	}
	if res.Columns[0] != "t" || res.Columns[1] != "director" {
		t.Fatalf("alias headers = %v", res.Columns)
	}
}

func TestInnerJoinKeywordAndCount(t *testing.T) {
	db := sqlFixture(t)
	res := db.MustExec(`SELECT movies.id FROM movies INNER JOIN directed_by ON movies.id = directed_by.movie_id`)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %v", res.Rows)
	}
}

func TestWherePredicates(t *testing.T) {
	db := sqlFixture(t)
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT id FROM movies WHERE budget > 10000000`, 2},
		{`SELECT id FROM movies WHERE budget >= 10000000 AND language = 'en'`, 2},
		{`SELECT id FROM movies WHERE language = 'fr' OR title = 'Brazil'`, 2},
		{`SELECT id FROM movies WHERE NOT language = 'en'`, 1},
		{`SELECT id FROM movies WHERE title <> 'Brazil'`, 2},
		{`SELECT id FROM movies WHERE title != 'Brazil'`, 2},
		{`SELECT id FROM movies WHERE budget < 11000000`, 1},
		{`SELECT id FROM movies WHERE budget <= 11000000`, 2},
		{`SELECT id FROM movies WHERE (language = 'en' AND budget > 12000000) OR language = 'fr'`, 2},
		{`SELECT id FROM movies WHERE title LIKE 'A%'`, 2},
		{`SELECT id FROM movies WHERE title LIKE '%li%'`, 2},
		{`SELECT id FROM movies WHERE title LIKE '_razil'`, 1},
		{`SELECT id FROM movies WHERE id = 2`, 1},
	}
	for _, c := range cases {
		res, err := db.Exec(c.sql)
		if err != nil {
			t.Fatalf("%v\n  in: %s", err, c.sql)
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s -> %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestWhereIsNull(t *testing.T) {
	db := sqlFixture(t)
	db.MustExec(`INSERT INTO movies (id, title) VALUES (4, 'Mystery')`)
	res := db.MustExec(`SELECT title FROM movies WHERE budget IS NULL`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "Mystery" {
		t.Fatalf("IS NULL = %v", res.Rows)
	}
	res = db.MustExec(`SELECT id FROM movies WHERE budget IS NOT NULL`)
	if len(res.Rows) != 3 {
		t.Fatalf("IS NOT NULL rows = %v", res.Rows)
	}
	// NULL comparisons are false, never matching.
	res = db.MustExec(`SELECT id FROM movies WHERE budget = 15000000`)
	if len(res.Rows) != 1 {
		t.Fatalf("NULL-safe compare = %v", res.Rows)
	}
}

func TestDistinctAndLimit(t *testing.T) {
	db := sqlFixture(t)
	res := db.MustExec(`SELECT DISTINCT language FROM movies ORDER BY language`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "en" || res.Rows[1][0].Str != "fr" {
		t.Fatalf("distinct = %v", res.Rows)
	}
	res = db.MustExec(`SELECT id FROM movies ORDER BY id DESC LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("limit/desc = %v", res.Rows)
	}
	res = db.MustExec(`SELECT id FROM movies LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("limit 0 = %v", res.Rows)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := sqlFixture(t)
	db.MustExec(`INSERT INTO movies VALUES (5, 'Brazil', 1, 'pt')`)
	res := db.MustExec(`SELECT title, id FROM movies ORDER BY title ASC, id DESC`)
	if res.Rows[0][0].Str != "Alien" {
		t.Fatalf("order = %v", res.Rows)
	}
	// Two "Brazil" rows: id 5 before id 1 due to DESC second key.
	if res.Rows[2][1].I != 5 || res.Rows[3][1].I != 1 {
		t.Fatalf("secondary order = %v", res.Rows)
	}
}

func TestInsertWithColumnList(t *testing.T) {
	db := sqlFixture(t)
	res := db.MustExec(`INSERT INTO movies (title, id) VALUES ('Valerian', 6)`)
	if res.Rows[0][0].I != 1 {
		t.Fatalf("inserted count = %v", res.Rows)
	}
	row := db.MustTable("movies").Row(3)
	if row[1].Str != "Valerian" || !row[2].IsNull() {
		t.Fatalf("column-list insert = %v", row)
	}
}

func TestSQLStringEscapes(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (s TEXT)`)
	db.MustExec(`INSERT INTO t VALUES ('it''s')`)
	res := db.MustExec(`SELECT s FROM t WHERE s = 'it''s'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "it's" {
		t.Fatalf("escape = %v", res.Rows)
	}
}

func TestSQLNegativeNumbersAndFloats(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INT, b FLOAT)`)
	db.MustExec(`INSERT INTO t VALUES (-5, -2.5), (3, 1e3)`)
	res := db.MustExec(`SELECT a FROM t WHERE b < 0`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != -5 {
		t.Fatalf("negative = %v", res.Rows)
	}
	res = db.MustExec(`SELECT a FROM t WHERE b = 1000.0`)
	if len(res.Rows) != 1 {
		t.Fatalf("scientific literal = %v", res.Rows)
	}
}

func TestSQLErrors(t *testing.T) {
	db := sqlFixture(t)
	bad := []string{
		`SELEC title FROM movies`,
		`SELECT title FROM ghosts`,
		`SELECT ghost FROM movies`,
		`SELECT m.title FROM movies`,
		`SELECT id FROM movies WHERE`,
		`SELECT id FROM movies WHERE title = `,
		`SELECT id FROM movies LIMIT x`,
		`SELECT id FROM movies ORDER id`,
		`INSERT INTO movies VALUES (1)`,
		`INSERT INTO ghosts VALUES (1)`,
		`CREATE TABLE movies (id INT)`,
		`CREATE TABLE x (id WIBBLE)`,
		`SELECT id FROM movies trailing garbage extra`,
		`SELECT id FROM movies WHERE title = 'unterminated`,
		`SELECT id, FROM movies`,
		`SELECT id FROM movies JOIN persons ON movies.id = ghosts.id`,
		`SELECT name FROM persons p JOIN directed_by p ON p.id = p.person_id`,
		// Aggregates and grouping are not part of the subset.
		`SELECT COUNT(*) FROM movies`,
		`SELECT title FROM movies GROUP BY title`,
	}
	for _, s := range bad {
		if _, err := db.Exec(s); err == nil {
			t.Errorf("no error for: %s", s)
		}
	}
}

func TestAmbiguousColumnError(t *testing.T) {
	db := sqlFixture(t)
	// Both movies and persons have an "id" column, so the bare "id" in the
	// second ON clause and in the projection is ambiguous.
	_, err := db.Exec(`
		SELECT id FROM movies
		JOIN directed_by ON movies.id = movie_id
		JOIN persons ON id = person_id`)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("expected ambiguity error, got %v", err)
	}
}

func TestUnqualifiedColumnsResolve(t *testing.T) {
	db := sqlFixture(t)
	res := db.MustExec(`
		SELECT title, name
		FROM movies
		JOIN directed_by ON id = movie_id
		JOIN persons ON persons.id = person_id
		WHERE name = 'Ridley Scott'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "Alien" {
		t.Fatalf("unqualified resolve = %v", res.Rows)
	}
}

func TestJoinSkipsNullKeys(t *testing.T) {
	db := sqlFixture(t)
	db.MustExec(`INSERT INTO directed_by (person_id) VALUES (10)`) // NULL movie_id
	res := db.MustExec(`SELECT movies.id FROM movies JOIN directed_by ON movies.id = directed_by.movie_id`)
	if len(res.Rows) != 3 {
		t.Fatalf("NULL join key should not match: %v", res.Rows)
	}
}

func TestQueryText(t *testing.T) {
	db := sqlFixture(t)
	titles, err := db.QueryText(`SELECT title FROM movies ORDER BY title`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(titles, "|") != "Alien|Amelie|Brazil" {
		t.Fatalf("QueryText = %v", titles)
	}
	if _, err := db.QueryText(`SELECT nope FROM movies`); err == nil {
		t.Fatal("QueryText should propagate errors")
	}
}

func TestMustExecPanics(t *testing.T) {
	db := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	db.MustExec(`SELECT * FROM missing`)
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestBoolColumnSQL(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (id INT, flag BOOL)`)
	db.MustExec(`INSERT INTO t VALUES (1, TRUE), (2, FALSE)`)
	res := db.MustExec(`SELECT id FROM t WHERE flag`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("bare bool predicate = %v", res.Rows)
	}
	res = db.MustExec(`SELECT id FROM t WHERE flag = FALSE`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("bool compare = %v", res.Rows)
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE "Weird" ("Col" TEXT)`)
	db.MustExec(`INSERT INTO "Weird" VALUES ('x')`)
	res := db.MustExec(`SELECT "Col" FROM "Weird"`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "x" {
		t.Fatalf("quoted identifiers = %v", res.Rows)
	}
}

// TestAggregateErrors: the subset has no aggregates and no grouping, so
// each form the engine once evaluated is refused rather than answered.
func TestAggregateErrors(t *testing.T) {
	db := sqlFixture(t)
	for _, s := range []string{
		`SELECT COUNT(title) FROM movies`,
		`SELECT SUM(budget), AVG(budget) FROM movies`,
		`SELECT MIN(title), MAX(title) FROM movies`,
		`SELECT language, COUNT(*) FROM movies GROUP BY language`,
		`SELECT persons.name FROM movies JOIN directed_by ON movies.id = directed_by.movie_id JOIN persons ON persons.id = directed_by.person_id GROUP BY persons.name`,
	} {
		if _, err := db.Exec(s); err == nil {
			t.Errorf("no error for: %s", s)
		}
	}
}

// TestColumnsNamedLikeAggregatesStillWork: count, sum, avg and group are
// ordinary identifiers, usable as column names.
func TestColumnsNamedLikeAggregatesStillWork(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (count INT, sum INT, avg TEXT, "group" TEXT)`)
	db.MustExec(`INSERT INTO t VALUES (2, 3, 'x', 'g')`)
	res := db.MustExec(`SELECT count, sum, avg, "group" FROM t WHERE count = 2`)
	if len(res.Rows) != 1 || res.Rows[0][1].I != 3 || res.Rows[0][2].Str != "x" || res.Rows[0][3].Str != "g" {
		t.Fatalf("plain columns named like aggregates = %v", res.Rows)
	}
}
