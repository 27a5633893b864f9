package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/retrodb/retro/internal/cpu"
	"github.com/retrodb/retro/internal/datagen"
	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/reldb"
	"github.com/retrodb/retro/internal/tokenize"
	"github.com/retrodb/retro/internal/vec"
)

// solverGolden holds one line per case of TestGoldenSolver: the case name
// and a SHA-256 prefix of the bits of the W it produced.
var solverGolden = filepath.Join("testdata", "golden", "solver.txt")

// TestGoldenSolver pins the solver's output itself, where the other solver
// tests check relations (parallel against sequential, the kernels against
// the pointwise reference, repair against one more sweep). It solves three
// problems — two random ones and the 300-movie TMDB world, whose groups
// share target sets — with RN and RO on one and three workers under four
// hyperparameter sets, and repairs a grown fixture with UpdateIncremental
// under each variant. It also pins the MF baseline (SolveFaruqui at two α)
// and the CheckConvexity report on each problem. A change that means to
// leave the program as it is leaves testdata/golden/solver.txt
// byte-identical; one that changes numbers on purpose regenerates it with
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenSolver ./internal/core
//
// and says which lines moved and why.
func TestGoldenSolver(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the hashes are recorded on amd64: elsewhere Go may fuse multiply-adds into FMAs and round differently")
	}
	// Normalize's dot product agrees across SIMD levels only within a
	// tolerance, so the golden run is pinned to the scalar kernels.
	defer cpu.SetLevel(cpu.Active())
	cpu.SetLevel(cpu.Scalar)

	problems := goldenProblems(t)
	params := goldenParams
	var got strings.Builder
	for _, pc := range problems {
		for _, hc := range params {
			for _, variant := range []Variant{RN, RO} {
				for _, workers := range []int{1, 3} {
					w := Solve(pc.p, hc.h, variant, ParallelOptions{Workers: workers}).W
					fmt.Fprintf(&got, "%s/%s/%v/w%d %s\n", pc.name, hc.name, variant, workers, matrixDigest(w, 0))
				}
			}
		}
	}
	for _, variant := range []Variant{RN, RO} {
		w, sweeps := goldenRepair(t, variant)
		fmt.Fprintf(&got, "repair/%v %s\n", variant, matrixDigest(w, sweeps))
	}
	for _, pc := range problems {
		for _, alpha := range []float64{1, 0.5} {
			res := SolveFaruqui(pc.p, alpha, 20)
			fmt.Fprintf(&got, "%s/faruqui/alpha=%g %s\n", pc.name, alpha, matrixDigest(res.W, res.Iterations))
		}
		for _, hc := range params {
			fmt.Fprintf(&got, "%s/%s/convexity %+v\n", pc.name, hc.name, CheckConvexity(pc.p, hc.h))
		}
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(solverGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(solverGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(solverGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if string(want) != got.String() {
		t.Errorf("solver output differs from %s\ngot:\n%sgolden:\n%s", solverGolden, got.String(), want)
	}
}

// namedProblem is a test problem with the name its golden lines carry.
type namedProblem struct {
	name string
	p    *Problem
}

// goldenProblems are TestGoldenSolver's three problems: two random ones
// and the 300-movie TMDB world.
func goldenProblems(t testing.TB) []namedProblem {
	return []namedProblem{
		{"random-a", randomProblem(t, rand.New(rand.NewSource(41)), 60, 7, 4, 4)},
		{"random-b", randomProblem(t, rand.New(rand.NewSource(42)), 150, 16, 3, 6)},
		{"tmdb", tmdbProblem(t, 300, 48)},
	}
}

// goldenParams are TestGoldenSolver's four hyperparameter sets.
var goldenParams = []struct {
	name string
	h    Hyperparams
}{
	{"default-rn", DefaultRN()},
	{"default-ro", DefaultRO()},
	{"beta", Hyperparams{Alpha: 1, Beta: 0.5, Gamma: 3, Delta: 1, Iterations: 10}},
	{"delta0", Hyperparams{Alpha: 1, Beta: 0, Gamma: 3, Delta: 0, Iterations: 10}},
}

// tmdbProblem builds the problem of the synthetic TMDB world.
func tmdbProblem(t testing.TB, movies, dim int) *Problem {
	t.Helper()
	world := datagen.TMDB(datagen.TMDBConfig{Movies: movies, Dim: dim})
	ex, err := extract.FromDB(world.DB, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return BuildProblem(ex, tokenize.New(world.Embedding))
}

// goldenRepair solves the grown fixture of TestSolveMatchesReference,
// inserts two more movies the way a session does — grow the problem, give
// the new rows their W0 vectors, grow the target sums — and repairs their
// two-hop neighbourhood in place. It returns the repaired W and the sweep
// count.
func goldenRepair(t *testing.T, variant Variant) (*vec.Matrix, int) {
	t.Helper()
	db, ex, p, tok := grownFixture(t, 3, false)
	h := DefaultRN()
	if variant == RO {
		h = DefaultRO()
	}
	w := Solve(p, h, variant, ParallelOptions{Workers: 1}).W
	st := NewIncrementalState(p, w)
	rep := insertAndGrow(t, db, ex, p, tok, "movies", [][]reldb.Value{
		{reldb.Int(900), reldb.Text("brazil"), reldb.Text("france")},
		{reldb.Int(901), reldb.Text("gilliam satire"), reldb.Text("usa")},
	})
	w.GrowRows(p.N)
	for _, id := range rep.NewNodes {
		copy(w.Row(id), p.W0.Row(id))
	}
	st.Grow(p, w, rep)
	dirty := AffectedNodes(p, rep.Seeds, 2)
	p.RefreshCentroids(dirty)
	sweeps := UpdateIncremental(p, w, st, dirty, h, variant, IncrementalOptions{})
	return w, sweeps
}

// matrixDigest hashes the shape and float64 bits of w, then extra.
func matrixDigest(w *vec.Matrix, extra int) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(w.Rows))
	put(uint64(w.Cols))
	for i := 0; i < w.Rows; i++ {
		for _, x := range w.Row(i) {
			put(math.Float64bits(x))
		}
	}
	put(uint64(extra))
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
