// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) on the synthetic worlds of internal/datagen. Each
// experiment returns a Report carrying the same rows/series the paper
// prints, and experiments_test.go checks each report's shape at
// TinyScale.
package experiments

import (
	"fmt"

	"github.com/retrodb/retro/internal/core"
	"github.com/retrodb/retro/internal/deepwalk"
	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/graph"
	"github.com/retrodb/retro/internal/reldb"
	"github.com/retrodb/retro/internal/tokenize"
)

// Method names an embedding type of §5 (plus the +DW concatenations).
type Method string

// The embedding types compared throughout the evaluation.
const (
	PV   Method = "PV"    // plain word vectors (tokenized initialisation)
	MF   Method = "MF"    // Faruqui et al. retrofitting baseline
	DW   Method = "DW"    // DeepWalk node embeddings
	RO   Method = "RO"    // relational retrofitting, optimisation-based
	RN   Method = "RN"    // relational retrofitting, series-based
	PVDW Method = "PV+DW" // concatenations (§4.6)
	MFDW Method = "MF+DW"
	RODW Method = "RO+DW"
	RNDW Method = "RN+DW"
)

// AllMethods lists the embedding types in the paper's presentation order.
var AllMethods = []Method{PV, MF, DW, RO, RN, PVDW, MFDW, RODW, RNDW}

// base returns the non-DW component of a combined method.
func (m Method) base() Method {
	switch m {
	case PVDW:
		return PV
	case MFDW:
		return MF
	case RODW:
		return RO
	case RNDW:
		return RN
	default:
		return m
	}
}

// combined reports whether m is a +DW concatenation.
func (m Method) combined() bool { return m != m.base() }

// Pipeline trains every embedding type once over a database and serves
// per-text-value vectors to the task experiments.
type Pipeline struct {
	Ex      *extract.Extraction
	Tok     *tokenize.Tokenizer
	Problem *core.Problem

	roParams core.Hyperparams
	rnParams core.Hyperparams
	dwConfig deepwalk.Config

	stores map[Method]*embed.Store
}

// NewPipeline extracts the database, tokenizes against the base embedding
// and assembles the retrofitting problem. Solvers run lazily per method.
func NewPipeline(db *reldb.DB, base *embed.Store, opts extract.Options,
	roParams, rnParams core.Hyperparams, dwConfig deepwalk.Config) (*Pipeline, error) {
	ex, err := extract.FromDB(db, opts)
	if err != nil {
		return nil, err
	}
	if ex.NumValues() == 0 {
		return nil, fmt.Errorf("experiments: no text values extracted")
	}
	tok := tokenize.New(base)
	return &Pipeline{
		Ex:       ex,
		Tok:      tok,
		Problem:  core.BuildProblem(ex, tok),
		roParams: roParams,
		rnParams: rnParams,
		dwConfig: dwConfig,
		stores:   make(map[Method]*embed.Store),
	}, nil
}

// Store returns (training on first use) the embedding store of a method,
// keyed by the canonical value key (category + text).
func (p *Pipeline) Store(m Method) (*embed.Store, error) {
	if s, ok := p.stores[m]; ok {
		return s, nil
	}
	var s *embed.Store
	switch m {
	case PV:
		s = p.matrixStore(p.Problem.W0)
	case MF:
		s = p.matrixStore(core.SolveFaruqui(p.Problem, 1, 20).W)
	case RO:
		s = p.matrixStore(core.SolveRO(p.Problem, p.roParams, core.SolveOptions{}).W)
	case RN:
		s = p.matrixStore(core.SolveRN(p.Problem, p.rnParams, core.SolveOptions{}).W)
	case DW:
		g := graph.Build(p.Ex)
		res, err := deepwalk.Train(g, p.dwConfig)
		if err != nil {
			return nil, err
		}
		s = res.ToStore(p.Ex)
	case PVDW, MFDW, RODW, RNDW:
		baseStore, err := p.Store(m.base())
		if err != nil {
			return nil, err
		}
		dwStore, err := p.Store(DW)
		if err != nil {
			return nil, err
		}
		s, err = embed.Combine(baseStore, dwStore, embed.Concat)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown method %q", m)
	}
	p.stores[m] = s
	return s, nil
}

// matrixStore wraps a solved matrix (rows = extraction value ids) as a
// store keyed by value key.
func (p *Pipeline) matrixStore(w interface {
	Row(int) []float64
}) *embed.Store {
	s := embed.NewStore(p.Problem.Dim)
	for _, v := range p.Ex.Values {
		s.Add(deepwalk.ValueKey(p.Ex, v.ID), w.Row(v.ID))
	}
	return s
}

// Vector fetches the embedding of a (table, column, text) value under a
// method.
func (p *Pipeline) Vector(m Method, table, column, text string) ([]float64, error) {
	id, ok := p.Ex.Lookup(table, column, text)
	if !ok {
		return nil, fmt.Errorf("experiments: no value %q in %s.%s", text, table, column)
	}
	s, err := p.Store(m)
	if err != nil {
		return nil, err
	}
	v, ok := s.VectorOf(deepwalk.ValueKey(p.Ex, id))
	if !ok {
		return nil, fmt.Errorf("experiments: store missing key for %q", text)
	}
	return v, nil
}

// Dim returns the vector width of a method's store.
func (p *Pipeline) Dim(m Method) (int, error) {
	s, err := p.Store(m)
	if err != nil {
		return 0, err
	}
	return s.Dim(), nil
}
