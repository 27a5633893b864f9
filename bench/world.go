package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"github.com/retrodb/retro/internal/datagen"
	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/reldb"
)

// key addresses one text value the way a client does.
type key struct{ Table, Column, Text string }

// neighborsPath is the request path and query of GET /v1/neighbors for k.
func (k key) neighborsPath(n int) string {
	q := url.Values{"table": {k.Table}, "column": {k.Column}, "text": {k.Text}, "k": {fmt.Sprint(n)}}
	return "/v1/neighbors?" + q.Encode()
}

// world is the generated input of one workload: a dataset directory in
// the `retro generate` layout (the only thing the program ever sees)
// and, for the write workload, a held-out tail of movie rows that fit the
// exported schema.
type world struct {
	dir       string
	tail      [][]any // held-out movies rows in JSON form, ascending id
	movieKeys []key   // title and overview of every exported movie
}

// genWorld generates a TMDB-like world of movies+tail movies from the
// seed, exports the first `movies` of them (with the link and review rows
// that reference them, and every dimension table in full) to dir, and
// keeps the remaining movie rows back as an insert stream: new titles
// and overviews whose director FKs resolve against the exported persons.
func genWorld(dir string, seed int64, dim, movies, tail int) (*world, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	full := datagen.TMDB(datagen.TMDBConfig{Movies: movies + tail, Dim: dim, Seed: seed})
	w := &world{dir: dir}
	for _, t := range full.DB.Tables() {
		// The cut is by movie id: movies.id for the movies table itself,
		// movie_id for everything that hangs off a movie.
		cut := -1
		if t.Name == "movies" {
			cut, _ = t.ColumnIndex("id")
		} else if c, ok := t.ColumnIndex("movie_id"); ok {
			cut = c
		}
		out := reldb.New()
		// Foreign keys are dropped from the copy: it exists only to be
		// written as CSV, and the importer re-infers them from the headers.
		cols := make([]reldb.Column, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = reldb.Column{Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey}
		}
		if _, err := out.CreateTable(t.Name, cols); err != nil {
			return nil, err
		}
		titleCol, _ := t.ColumnIndex("title")
		overviewCol, _ := t.ColumnIndex("overview")
		var insertErr error
		t.Scan(func(_ int, row []reldb.Value) bool {
			if cut >= 0 && row[cut].I >= int64(movies) {
				if t.Name == "movies" {
					w.tail = append(w.tail, jsonRow(row))
				}
				return true
			}
			if t.Name == "movies" {
				w.movieKeys = append(w.movieKeys,
					key{"movies", "title", row[titleCol].Str}, key{"movies", "overview", row[overviewCol].Str})
			}
			_, insertErr = out.Insert(t.Name, row)
			return insertErr == nil
		})
		if insertErr != nil {
			return nil, insertErr
		}
		f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
		if err != nil {
			return nil, err
		}
		err = out.MustTable(t.Name).ExportCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	f, err := os.Create(filepath.Join(dir, "embedding.bin"))
	if err != nil {
		return nil, err
	}
	err = full.Embedding.WriteBinary(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return w, err
}

// jsonRow converts a database row to the JSON values /v1/insert takes.
func jsonRow(row []reldb.Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind {
		case reldb.KindText:
			out[i] = v.Str
		case reldb.KindInt:
			out[i] = v.I
		case reldb.KindFloat:
			out[i] = v.Num
		case reldb.KindBool:
			out[i] = v.Num != 0
		}
	}
	return out
}

// storeKeys lists every value of a served store in a seed-determined
// order, so a Zipf rank means the same key on every run of a seed and
// nothing about the order correlates with the data.
func storeKeys(store *embed.Store, seed int64) []key {
	words := store.Words()
	keys := make([]key, len(words))
	for i, w := range words {
		keys[i] = keyFromStore(w)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// storeKey is the embedding-store key of a value ("table.column\x00text").
func (k key) storeKey() string { return k.Table + "." + k.Column + "\x00" + k.Text }

// keyFromStore inverts storeKey.
func keyFromStore(word string) key {
	cat, text, _ := strings.Cut(word, "\x00")
	table, column, _ := strings.Cut(cat, ".")
	return key{Table: table, Column: column, Text: text}
}

// draw is a seeded stream of key indices.
type draw func() int

// uniformDraw picks every key with equal probability: with a vocabulary
// many times the server's cache, almost every request is a miss.
func uniformDraw(n int, seed int64) draw {
	rng := rand.New(rand.NewSource(seed))
	return func() int { return rng.Intn(n) }
}

// zipfDraw picks rank r with probability ∝ 1/(1+r)^s over the shuffled
// key list: a small hot set takes most requests and fits the cache.
func zipfDraw(n int, s float64, seed int64) draw {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// sequence materialises n draws up front, so the timed loop does no
// random-number work and concurrent workers share one deterministic
// order.
func sequence(d draw, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = d()
	}
	return out
}
