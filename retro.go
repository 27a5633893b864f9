// Package retro is RETRO — relational retrofitting for in-database machine
// learning on textual data (Günther, Thiele, Lehner, EDBT 2020) — as a Go
// library. It learns a dense vector for every unique text value of a
// relational database by retrofitting a pre-trained word embedding with
// the database's categorial (column) and relational (row-wise, PK-FK,
// n:m) structure.
//
// Quick start:
//
//	db := retro.NewDB()
//	db.MustExec(`CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, director TEXT)`)
//	db.MustExec(`INSERT INTO movies VALUES (1, 'Alien', 'Ridley Scott')`)
//	emb, _ := retro.ReadTextEmbedding(file)            // GloVe/word2vec text format
//	model, _ := retro.Retrofit(db, emb, retro.Defaults())
//	vec, _ := model.Vector("movies", "title", "Alien") // ready for ML tasks
//
// The package wraps the full system: the embedded relational engine
// (reldb), §3.1 trie tokenization, §3.2 relationship extraction, the RO
// and RN solvers of §4, the Faruqui-baseline and DeepWalk comparators, and
// the §4.6 embedding combination.
package retro

import (
	"fmt"
	"io"

	"github.com/retrodb/retro/internal/ann"
	"github.com/retrodb/retro/internal/core"
	"github.com/retrodb/retro/internal/deepwalk"
	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/graph"
	"github.com/retrodb/retro/internal/reldb"
	"github.com/retrodb/retro/internal/tokenize"
)

// DB is the embedded relational database (see internal/reldb): typed
// tables, PK/FK constraints, CSV import and a SQL subset via Exec.
type DB = reldb.DB

// Value is a typed SQL value.
type Value = reldb.Value

// Column describes a table column for programmatic schema construction.
type Column = reldb.Column

// ForeignKey declares a reference to another table's primary key.
type ForeignKey = reldb.ForeignKey

// CSVOptions controls DB.ImportCSV.
type CSVOptions = reldb.CSVOptions

// Embedding is a word/value embedding store with nearest-neighbour
// queries and text/binary serialisation.
type Embedding = embed.Store

// Match is a nearest-neighbour search result.
type Match = embed.Match

// NewDB creates an empty database.
func NewDB() *DB { return reldb.New() }

// Text builds a text value.
func Text(s string) Value { return reldb.Text(s) }

// Int builds an integer value.
func Int(i int64) Value { return reldb.Int(i) }

// Float builds a floating-point value.
func Float(f float64) Value { return reldb.Float(f) }

// Null is the SQL NULL value.
var Null = reldb.Null

// NewEmbedding creates an empty embedding store of the given width.
func NewEmbedding(dim int) *Embedding { return embed.NewStore(dim) }

// Precision selects the serving store's vector representation: F64 is
// the classic float64 layout, F32 halves the resident footprint and
// serves similarity queries through float32 SIMD kernels with float64
// accumulation (training always runs in float64; an F32 store rounds
// each vector once, at the store boundary).
type Precision = embed.Precision

// Store precisions. The Config zero value is F64 for compatibility;
// retro-serve defaults to F32.
const (
	F64 = embed.F64
	F32 = embed.F32
)

// ParsePrecision normalises a user-facing precision string ("f32",
// "float32", "single", "f64", "float64", "double", or "" for F64).
func ParsePrecision(s string) (Precision, error) { return embed.ParsePrecision(s) }

// NewEmbeddingWithPrecision creates an empty embedding store of the
// given width and vector precision.
func NewEmbeddingWithPrecision(dim int, p Precision) *Embedding {
	return embed.NewStoreWithPrecision(dim, p)
}

// ReadTextEmbedding parses the word2vec/GloVe text format.
func ReadTextEmbedding(r io.Reader) (*Embedding, error) { return embed.ReadText(r) }

// ReadBinaryEmbedding parses the compact binary format written by
// (*Embedding).WriteBinary.
func ReadBinaryEmbedding(r io.Reader) (*Embedding, error) { return embed.ReadBinary(r) }

// Variant selects the retrofitting solver.
type Variant = core.Variant

// Solver variants: RO is the optimisation-based iteration (eq. 10), RN
// the faster series-based iteration (eq. 11).
const (
	RO = core.RO
	RN = core.RN
)

// Hyperparams are the four global constants of §4.4.
type Hyperparams = core.Hyperparams

// ANNParams tunes the HNSW approximate nearest-neighbour index used by
// Model.Neighbors and Embedding.TopK on large vocabularies: M (links per
// node), EfConstruction (build beam), EfSearch (query beam), Seed. Zero
// fields select the defaults.
type ANNParams = ann.Params

// DefaultANNThreshold is the vocabulary size at which similarity queries
// switch from the exact scan to the HNSW index.
const DefaultANNThreshold = embed.DefaultANNThreshold

// Config controls Retrofit.
type Config struct {
	// Variant selects RO or RN (default RN, the paper's recommendation
	// for speed at comparable quality); Retrofit rejects any other value.
	Variant Variant
	// Hyperparams defaults to the paper's per-variant configuration.
	Hyperparams *Hyperparams
	// ExcludeColumns hides "table.column" text columns from training
	// (used when a column is an ML target).
	ExcludeColumns []string
	// ExcludeRelations hides "a.b->c.d" relation groups (used for link
	// prediction evaluation).
	ExcludeRelations []string
	// TrackLoss records Ψ(W) per iteration in Model.LossHistory.
	TrackLoss bool
	// Parallel spreads solver iterations over this many workers
	// (0 = sequential, matching the paper's single-thread protocol;
	// -1 = GOMAXPROCS). Results are identical either way.
	Parallel int
	// ANNThreshold is the vocabulary size at which Neighbors/TopK switch
	// from the exact scan to the HNSW index (0 = DefaultANNThreshold,
	// negative = always exact).
	ANNThreshold int
	// ANNParams tunes the HNSW graph; nil selects the defaults.
	ANNParams *ANNParams
	// Quantization selects the ANN candidate-generation mode: "sq8"
	// traverses the HNSW graph on 8-bit scalar-quantized codes (8x less
	// memory traffic per hop) and re-scores candidates exactly in float64
	// before returning; "" or "off" keeps exact traversal. Returned
	// scores are always exact either way.
	Quantization string
	// RerankFactor is the SQ8 candidate over-fetch factor: quantized
	// queries fetch RerankFactor*k candidates and re-rank them exactly
	// (0 selects ann.DefaultRerank, currently 3). Ignored unless
	// Quantization is enabled.
	RerankFactor int
	// Precision selects the serving store representation: F64 (the zero
	// value, full float64 rows) or F32 (half the resident bytes, float32
	// SIMD scoring with float64 accumulation). Training and incremental
	// repair always solve in float64; with F32 each repaired vector is
	// rounded once when it is written back into the store.
	Precision Precision
}

// QuantSQ8 is the Config.Quantization value selecting 8-bit scalar
// quantization; QuantOff (or "") selects exact traversal.
const (
	QuantOff = embed.QuantOff
	QuantSQ8 = embed.QuantSQ8
)

// ParseQuantMode normalises a user-facing quantization mode string
// ("", "off", "none" or "sq8") to the canonical Config.Quantization
// value, rejecting anything else.
func ParseQuantMode(s string) (string, error) { return embed.ParseQuantMode(s) }

// Defaults returns the paper's recommended configuration (RN solver,
// α=1 β=0 γ=3 δ=1, 10 iterations).
func Defaults() Config { return Config{Variant: RN} }

// Model is a trained set of relational embeddings. Models come from two
// places: Retrofit (trained in-process, with the source database and
// extraction attached) or LoadSnapshot (deserialised, answering value
// queries purely from the persisted store until ResumeSession reattaches
// a database).
type Model struct {
	db     *DB
	base   *Embedding
	ex     *extract.Extraction // nil for a snapshot-loaded model
	tok    *tokenize.Tokenizer
	prob   *core.Problem
	cfg    Config
	hp     Hyperparams
	store  *Embedding
	lossHT []float64
	cats   []string      // category names when ex == nil
	snap   *SnapshotInfo // provenance when loaded from a snapshot
}

// Retrofit learns vectors for every unique text value in db, anchored to
// the given pre-trained embedding (§3–4 of the paper).
func Retrofit(db *DB, base *Embedding, cfg Config) (*Model, error) {
	if _, err := embed.ParseQuantMode(cfg.Quantization); err != nil {
		return nil, fmt.Errorf("retro: %w", err)
	}
	if cfg.Variant != RO && cfg.Variant != RN {
		return nil, fmt.Errorf("retro: unknown solver variant %d", cfg.Variant)
	}
	ex, err := extract.FromDB(db, extract.Options{
		ExcludeColumns:   cfg.ExcludeColumns,
		ExcludeRelations: cfg.ExcludeRelations,
	})
	if err != nil {
		return nil, err
	}
	if ex.NumValues() == 0 {
		return nil, fmt.Errorf("retro: database contains no text values")
	}
	hp := resolveParams(cfg)
	tok := tokenize.New(base)
	prob := core.BuildProblem(ex, tok)
	res := core.Solve(prob, hp, cfg.Variant, core.ParallelOptions{
		SolveOptions: core.SolveOptions{TrackLoss: cfg.TrackLoss},
		Workers:      workerCount(cfg.Parallel),
	})

	m := &Model{
		db: db, base: base, ex: ex, tok: tok, prob: prob,
		cfg: cfg, hp: hp, lossHT: res.LossHistory,
	}
	m.store = m.buildStore(res.W.Row)
	return m, nil
}

// workerCount maps Config.Parallel onto core.ParallelOptions.Workers.
func workerCount(parallel int) int {
	switch {
	case parallel == 0:
		return 1 // sequential
	case parallel < 0:
		return 0 // ParallelOptions defaults to GOMAXPROCS
	}
	return parallel
}

func resolveParams(cfg Config) Hyperparams {
	if cfg.Hyperparams != nil {
		return *cfg.Hyperparams
	}
	if cfg.Variant == RO {
		return core.DefaultRO()
	}
	return core.DefaultRN()
}

func (m *Model) buildStore(row func(int) []float64) *Embedding {
	s := embed.NewStoreWithPrecision(m.prob.Dim, m.cfg.Precision)
	applyANNConfig(s, m.cfg)
	s.Reserve(len(m.ex.Values))
	for _, v := range m.ex.Values {
		s.Add(deepwalk.ValueKey(m.ex, v.ID), row(v.ID))
	}
	return s
}

// applyANNConfig projects the Config ANN knobs onto a store. The
// quantization mode must be pre-validated (see Retrofit).
func applyANNConfig(s *embed.Store, cfg Config) {
	if cfg.ANNThreshold < 0 {
		s.DisableANN()
	} else {
		var p ann.Params
		if cfg.ANNParams != nil {
			p = *cfg.ANNParams
		}
		s.EnableANN(cfg.ANNThreshold, p)
	}
	s.EnableQuantization(cfg.Quantization, cfg.RerankFactor)
}

// Vector returns the learned embedding of the text value stored in the
// given table and column. The slice must not be mutated.
func (m *Model) Vector(table, column, text string) ([]float64, error) {
	key, ok := m.Key(table, column, text)
	if !ok {
		return nil, fmt.Errorf("retro: no value %q in %s.%s", text, table, column)
	}
	v, ok := m.store.VectorOf(key)
	if !ok {
		return nil, fmt.Errorf("retro: internal: store missing value %q", text)
	}
	return v, nil
}

// LossHistory returns Ψ(W) per iteration when TrackLoss was enabled.
func (m *Model) LossHistory() []float64 { return m.lossHT }

// NumValues returns the number of embedded text values.
func (m *Model) NumValues() int {
	if m.ex == nil {
		return m.store.Len()
	}
	return m.ex.NumValues()
}

// Store returns the embedding store keyed by "table.column\x00text".
func (m *Model) Store() *Embedding { return m.store }

// Key builds the store key for a (table, column, text) value.
func (m *Model) Key(table, column, text string) (string, bool) {
	if m.ex == nil {
		// Snapshot-loaded model: the store keys themselves are the
		// provenance, so address values directly by key.
		key := table + "." + column + "\x00" + text
		if _, ok := m.store.ID(key); !ok {
			return "", false
		}
		return key, true
	}
	id, ok := m.ex.Lookup(table, column, text)
	if !ok {
		return "", false
	}
	return deepwalk.ValueKey(m.ex, id), true
}

// categories returns the "table.column" names the model covers.
func (m *Model) categories() []string {
	if m.ex == nil {
		return m.cats
	}
	out := make([]string, len(m.ex.Categories))
	for i, c := range m.ex.Categories {
		out[i] = c.Name()
	}
	return out
}

// Neighbors returns the k most similar text values to the given value,
// across all columns.
func (m *Model) Neighbors(table, column, text string, k int) ([]Match, error) {
	key, ok := m.Key(table, column, text)
	if !ok {
		return nil, fmt.Errorf("retro: no value %q in %s.%s", text, table, column)
	}
	v, _ := m.store.VectorOf(key)
	selfID, _ := m.store.ID(key)
	return m.store.TopK(v, k, func(id int) bool { return id == selfID }), nil
}

// DeepWalkConfig tunes the DeepWalk node embedding baseline.
type DeepWalkConfig = deepwalk.Config

// TrainDeepWalk learns DeepWalk node embeddings over the same §3.4 graph
// RETRO uses, keyed compatibly with Model.Store for combination.
func TrainDeepWalk(db *DB, cfg Config, dwCfg DeepWalkConfig) (*Embedding, error) {
	ex, err := extract.FromDB(db, extract.Options{
		ExcludeColumns:   cfg.ExcludeColumns,
		ExcludeRelations: cfg.ExcludeRelations,
	})
	if err != nil {
		return nil, err
	}
	g := graph.Build(ex)
	res, err := deepwalk.Train(g, dwCfg)
	if err != nil {
		return nil, err
	}
	return res.ToStore(ex), nil
}

// Combine concatenates two stores over the first store's vocabulary
// (§4.6; the paper's preferred combiner).
func Combine(a, b *Embedding) (*Embedding, error) {
	return embed.Combine(a, b, embed.Concat)
}
