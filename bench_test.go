package retro

// One testing.B benchmark per table and figure of the paper's evaluation
// (run the full parameter sweeps with cmd/retro-bench), plus
// micro-benchmarks of the core kernels and ablations of single design
// choices.
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/retrodb/retro/internal/ann"
	"github.com/retrodb/retro/internal/core"
	"github.com/retrodb/retro/internal/datagen"
	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/experiments"
	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/tokenize"
)

// benchScale keeps the per-iteration cost of each experiment benchmark
// small enough for -bench=. runs; cmd/retro-bench covers larger scales.
func benchScale() experiments.Scale { return experiments.TinyScale() }

func runExperiment(b *testing.B, id string) {
	b.Helper()
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// Table 1: dataset properties.
func BenchmarkTable1DatasetProperties(b *testing.B) { runExperiment(b, "table1") }

// Table 2: runtime of the four embedding methods.
func BenchmarkTable2MethodRuntimes(b *testing.B) { runExperiment(b, "table2") }

// Figure 3: hyperparameter geometry example.
func BenchmarkFig3HyperparameterGeometry(b *testing.B) { runExperiment(b, "fig3") }

// Figure 4: retrofitting runtime vs database size.
func BenchmarkFig4RuntimeScaling(b *testing.B) { runExperiment(b, "fig4") }

// Figures 6/7: hyperparameter grids for binary classification.
func BenchmarkFig6GridSearchRO(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig7GridSearchRN(b *testing.B) { runExperiment(b, "fig7") }

// Figure 8: binary classification of US directors.
func BenchmarkFig8BinaryClassification(b *testing.B) { runExperiment(b, "fig8") }

// Figure 9: accuracy vs training-set size.
func BenchmarkFig9SampleSizeCurve(b *testing.B) { runExperiment(b, "fig9") }

// Figures 10/11: hyperparameter grids for language imputation.
func BenchmarkFig10GridSearchImputeRO(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11GridSearchImputeRN(b *testing.B) { runExperiment(b, "fig11") }

// Figures 12a/12b: missing-value imputation comparisons.
func BenchmarkFig12aImputationLanguage(b *testing.B)    { runExperiment(b, "fig12a") }
func BenchmarkFig12bImputationAppCategory(b *testing.B) { runExperiment(b, "fig12b") }

// Figure 13: budget regression.
func BenchmarkFig13Regression(b *testing.B) { runExperiment(b, "fig13") }

// Figure 14: genre link prediction.
func BenchmarkFig14LinkPrediction(b *testing.B) { runExperiment(b, "fig14") }

// --- Core kernels ----------------------------------------------------------

func benchWorld(b *testing.B, movies int) (*core.Problem, *extract.Extraction) {
	b.Helper()
	w := datagen.TMDB(datagen.TMDBConfig{Movies: movies, Dim: 48, Seed: 1})
	ex, err := extract.FromDB(w.DB, extract.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tok := tokenize.New(w.Embedding)
	return core.BuildProblem(ex, tok), ex
}

// BenchmarkROIteration measures one RO solve (10 iterations) per size.
func BenchmarkROIteration(b *testing.B) {
	for _, movies := range []int{50, 200} {
		p, _ := benchWorld(b, movies)
		b.Run(fmt.Sprintf("movies=%d", movies), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.SolveRO(p, core.DefaultRO(), core.SolveOptions{})
			}
		})
	}
}

// BenchmarkRNIteration measures one RN solve (10 iterations) per size:
// the paper's ~10x speed claim over RO is visible in the ratio.
func BenchmarkRNIteration(b *testing.B) {
	for _, movies := range []int{50, 200} {
		p, _ := benchWorld(b, movies)
		b.Run(fmt.Sprintf("movies=%d", movies), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.SolveRN(p, core.DefaultRN(), core.SolveOptions{})
			}
		})
	}
}

// BenchmarkParallelSolve times the one RO driver at one worker and at
// GOMAXPROCS (results are bit-identical; see TestSolveMatchesReference in
// internal/core).
func BenchmarkParallelSolve(b *testing.B) {
	p, _ := benchWorld(b, 200)
	h := core.DefaultRO()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SolveRO(p, h, core.SolveOptions{})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SolveROParallel(p, h, core.ParallelOptions{})
		}
	})
}

// BenchmarkFaruquiBaseline measures the MF solver (20 iterations).
func BenchmarkFaruquiBaseline(b *testing.B) {
	p, _ := benchWorld(b, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.SolveFaruqui(p, 1, 20)
	}
}

// BenchmarkExtraction measures §3.2 relationship extraction.
func BenchmarkExtraction(b *testing.B) {
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 200, Dim: 48, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := extract.FromDB(w.DB, extract.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenizerTrie is the DESIGN.md tokenizer ablation: trie
// longest-match versus naive whitespace lookup.
func BenchmarkTokenizerTrie(b *testing.B) {
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 100, Dim: 48, Seed: 1})
	ex, err := extract.FromDB(w.DB, extract.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tok := tokenize.New(w.Embedding)
	texts := make([]string, 0, len(ex.Values))
	for _, v := range ex.Values {
		texts = append(texts, v.Text)
	}
	b.Run("trie-longest-match", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range texts {
				tok.InitialVector(t)
			}
		}
	})
	b.Run("whitespace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range texts {
				tok.WhitespaceInitialVector(t)
			}
		}
	})
}

// BenchmarkRetrofitEndToEnd measures the public API path: extraction,
// tokenization, problem assembly and RN solve.
func BenchmarkRetrofitEndToEnd(b *testing.B) {
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 100, Dim: 48, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Retrofit(w.DB, w.Embedding, Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalInsert measures ExecAndRefresh — the legacy
// full-refresh repair kept for opaque SQL statements — against a full
// re-solve. At this toy scale the full matrix solve wins: the refresh
// pays whole-database re-extraction and problem rebuild on every call.
// The serving write path (Session.Insert/InsertBatch) repairs from the
// row delta instead; BenchmarkSessionInsert covers it and demonstrates
// the flat per-row cost.
func BenchmarkIncrementalInsert(b *testing.B) {
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 100, Dim: 48, Seed: 1})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			world := datagen.TMDB(datagen.TMDBConfig{Movies: 100, Dim: 48, Seed: 1})
			sess, err := NewSession(world.DB, world.Embedding, Defaults())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := sess.ExecAndRefresh(fmt.Sprintf(
				`INSERT INTO movies (id, title, original_language, director_id) VALUES (%d, 'bench title %d', 'english', 0)`,
				10_000+i, i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-resolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Retrofit(w.DB, w.Embedding, Defaults()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Serving write path: delta extraction + batched repair ------------------

// benchMovieRow builds a movies row for the TMDB schema (id, title,
// overview, original_language, budget, revenue, popularity, director_id)
// that shares the high-degree 'english' hub value, the worst case the
// repair budget exists for.
func benchMovieRow(id int, title string) []Value {
	return []Value{Int(int64(id)), Text(title), Null, Text("english"), Null, Null, Null, Null}
}

// BenchmarkSessionInsert measures the incremental write path at two
// database sizes a decade apart. The acceptance bar for the O(delta)
// rewrite: per-row cost of "single" stays flat (within ~2x) from
// movies=300 to movies=3000, and one 100-row InsertBatch beats 100
// single Inserts by >= 5x per row (compare ns/row across sub-benchmarks;
// batch100 also reports ns/row explicitly).
func BenchmarkSessionInsert(b *testing.B) {
	for _, movies := range []int{300, 3000} {
		w := datagen.TMDB(datagen.TMDBConfig{Movies: movies, Dim: 32, Seed: 1})
		cfg := Defaults()
		cfg.Parallel = -1
		sess, err := NewSession(w.DB, w.Embedding, cfg)
		if err != nil {
			b.Fatal(err)
		}
		nextID := 1_000_000
		b.Run(fmt.Sprintf("single/movies=%d", movies), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nextID++
				if err := sess.Insert("movies", benchMovieRow(nextID, fmt.Sprintf("bench premiere %d", nextID))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
		})
		b.Run(fmt.Sprintf("batch100/movies=%d", movies), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows := make([][]Value, 100)
				for r := range rows {
					nextID++
					rows[r] = benchMovieRow(nextID, fmt.Sprintf("bench premiere %d", nextID))
				}
				if err := sess.InsertBatch("movies", rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*100), "ns/row")
		})
	}
}

// --- Similarity search: brute force vs HNSW --------------------------------

const annBenchDim = 32

// annBenchWorld builds a store of n vectors plus a fixed query set. The
// vectors are a cluster mixture, mirroring how retrofitted embeddings
// group by column and relation neighbourhood rather than filling the
// space uniformly.
func annBenchWorld(n int) (*embed.Store, [][]float64) {
	rng := rand.New(rand.NewSource(42))
	centers := make([][]float64, 256)
	for ci := range centers {
		c := make([]float64, annBenchDim)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		centers[ci] = c
	}
	point := func() []float64 {
		c := centers[rng.Intn(len(centers))]
		v := make([]float64, annBenchDim)
		for j := range v {
			v[j] = c[j] + 0.25*rng.NormFloat64()
		}
		return v
	}
	s := embed.NewStore(annBenchDim)
	for i := 0; i < n; i++ {
		s.Add(fmt.Sprintf("v%07d", i), point())
	}
	queries := make([][]float64, 64)
	for qi := range queries {
		queries[qi] = point()
	}
	return s, queries
}

var annBenchSizes = []int{10_000, 50_000, 200_000}

// BenchmarkTopKBrute is the exact O(n·d) scan the library used before the
// serving subsystem existed.
func BenchmarkTopKBrute(b *testing.B) {
	for _, n := range annBenchSizes {
		s, queries := annBenchWorld(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.TopKExact(queries[i%len(queries)], 10, nil); len(got) != 10 {
					b.Fatal("short result")
				}
			}
		})
	}
}

// BenchmarkTopKHNSW measures the approximate path (index build excluded;
// it is forced before the timer starts) and reports recall@10 against the
// exact scan as a custom metric. The serving acceptance bar is >=10x over
// brute force at 50k vectors with recall@10 >= 0.95.
func BenchmarkTopKHNSW(b *testing.B) {
	for _, n := range annBenchSizes {
		s, queries := annBenchWorld(n)
		s.EnableANN(1, ann.Params{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s.TopK(queries[0], 10, nil) // build the index outside the timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.TopK(queries[i%len(queries)], 10, nil); len(got) != 10 {
					b.Fatal("short result")
				}
			}
			b.StopTimer()
			hits, total := 0, 0
			for _, q := range queries[:16] {
				want := map[int]bool{}
				for _, m := range s.TopKExact(q, 10, nil) {
					want[m.ID] = true
				}
				for _, m := range s.TopK(q, 10, nil) {
					if want[m.ID] {
						hits++
					}
				}
				total += 10
			}
			b.ReportMetric(float64(hits)/float64(total), "recall@10")
		})
	}
}

// --- Snapshot cold start ----------------------------------------------------

// The serving acceptance bar for snapshot persistence: booting from a
// snapshot must beat train-from-scratch by >= 10x on the 50k-vector
// generated dataset. The two benchmarks measure both boot paths over
// identical in-memory data: ColdStartTrain is what `retro-serve -data`
// does (retrofit + build the HNSW index), ColdStartSnapshot is what
// `retro-serve -snapshot` does (deserialise the store and adopt the
// persisted graph, no solver and no index construction).

// coldStartMovies yields ~52k text values at the TMDB schema's fan-out.
const coldStartMovies = 12000

var coldStart struct {
	sync.Once
	world *datagen.TMDBWorld
	snap  []byte
}

func coldStartWorld(b *testing.B) (*datagen.TMDBWorld, []byte) {
	b.Helper()
	coldStart.Do(func() {
		w := datagen.TMDB(datagen.TMDBConfig{Movies: coldStartMovies, Dim: 32, Seed: 1})
		cfg := Defaults()
		cfg.Parallel = -1
		sess, err := NewSession(w.DB, w.Embedding, cfg)
		if err != nil {
			panic(err)
		}
		sess.Model().Store().WarmANN()
		var buf bytes.Buffer
		if err := sess.Snapshot(&buf); err != nil {
			panic(err)
		}
		coldStart.world = w
		coldStart.snap = buf.Bytes()
	})
	return coldStart.world, coldStart.snap
}

func BenchmarkColdStartTrain(b *testing.B) {
	w, _ := coldStartWorld(b)
	cfg := Defaults()
	cfg.Parallel = -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := NewSession(w.DB, w.Embedding, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sess.Model().Store().WarmANN()
		if sess.Model().Store().ANNIndex() == nil {
			b.Fatal("index not built")
		}
	}
}

func BenchmarkColdStartSnapshot(b *testing.B) {
	w, snap := coldStartWorld(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := ResumeSession(w.DB, w.Embedding, bytes.NewReader(snap))
		if err != nil {
			b.Fatal(err)
		}
		sess.Model().Store().WarmANN() // must be a no-op: the graph came from the snapshot
		if sess.Model().Store().ANNIndex() == nil {
			b.Fatal("adopted index missing")
		}
	}
}

// BenchmarkSQLSelectJoin measures the reldb hash-join SELECT path.
func BenchmarkSQLSelectJoin(b *testing.B) {
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 300, Dim: 16, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := w.DB.Exec(`
			SELECT movies.title, persons.name
			FROM movies JOIN persons ON movies.director_id = persons.id
			WHERE movies.budget > 5000000`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty join")
		}
	}
}
