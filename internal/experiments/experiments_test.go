package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/retrodb/retro/internal/extract"
)

// Tiny-scale execution tests keep the whole suite runnable in CI; the
// shape assertions that need statistical power are left to
// cmd/retro-bench at -scale small or full, which prints the paper's
// expected shape beneath each table.

func TestScalePresets(t *testing.T) {
	for _, name := range []string{"tiny", "small", "full", ""} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if s.Movies <= 0 || s.Dim <= 0 || s.Repeats <= 0 {
			t.Fatalf("preset %q degenerate: %+v", name, s)
		}
	}
	if _, ok := ByName("galactic"); ok {
		t.Fatal("unknown preset accepted")
	}
}

func TestPipelineStoresAndVectors(t *testing.T) {
	s := TinyScale()
	w := s.tmdbWorld()
	p, err := NewPipeline(w.DB, w.Embedding, extract.Options{}, s.ROParams, s.RNParams, s.dwConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllMethods {
		store, err := p.Store(m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if store.Len() != p.Ex.NumValues() {
			t.Fatalf("%s: store has %d values, extraction %d", m, store.Len(), p.Ex.NumValues())
		}
		dim, err := p.Dim(m)
		if err != nil {
			t.Fatal(err)
		}
		if m.combined() {
			base, _ := p.Dim(m.base())
			dwDim, _ := p.Dim(DW)
			if dim != base+dwDim {
				t.Fatalf("%s: dim %d != %d+%d", m, dim, base, dwDim)
			}
		}
	}
	// Store caching: same pointer on second call.
	a, _ := p.Store(RO)
	b, _ := p.Store(RO)
	if a != b {
		t.Fatal("Store should cache")
	}
	// Vector lookup round-trip.
	val := p.Ex.Values[0]
	cat := p.Ex.Categories[val.Category]
	v, err := p.Vector(PV, cat.Table, cat.Column, val.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != p.Problem.Dim {
		t.Fatal("vector dim wrong")
	}
	if _, err := p.Vector(PV, "nope", "nope", "nope"); err == nil {
		t.Fatal("missing value lookup should error")
	}
}

func TestMethodBaseAndCombined(t *testing.T) {
	if RODW.base() != RO || !RODW.combined() {
		t.Fatal("RODW decomposition wrong")
	}
	if RO.base() != RO || RO.combined() {
		t.Fatal("RO decomposition wrong")
	}
}

func TestReportPrintAndCell(t *testing.T) {
	rep := &Report{
		ID:     "x",
		Title:  "T",
		Header: []string{"method", "acc"},
		Rows:   [][]string{{"PV", "0.5"}, {"RO", "0.9"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "method", "PV", "0.9", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	if v, ok := rep.Cell("RO", "acc"); !ok || v != "0.9" {
		t.Fatalf("Cell = %q %v", v, ok)
	}
	if _, ok := rep.Cell("RO", "nope"); ok {
		t.Fatal("missing column found")
	}
	if _, ok := rep.Cell("nope", "acc"); ok {
		t.Fatal("missing row found")
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", TinyScale()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1Shapes(t *testing.T) {
	rep, err := Table1(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if !strings.Contains(rep.Rows[0][1], "(+") {
		t.Fatalf("link tables not broken out: %v", rep.Rows[0])
	}
}

func TestFig3Geometry(t *testing.T) {
	rep, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// 4 sweeps x 3 values.
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig4RuntimeScaling(t *testing.T) {
	rep, err := Fig4(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Text values must grow with movie count.
	first := mustAtoi(t, rep.Rows[0][1])
	last := mustAtoi(t, rep.Rows[len(rep.Rows)-1][1])
	if last <= first {
		t.Fatalf("text values did not grow: %d -> %d", first, last)
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("bad int %q", s)
	}
	return v
}

func TestFig8RunsAndBeatsChanceForRO(t *testing.T) {
	rep, err := Fig8(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(AllMethods) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	cell, ok := rep.Cell("RO", "mean acc")
	if !ok {
		t.Fatal("RO row missing")
	}
	acc, err := strconv.ParseFloat(cell, 64)
	if err != nil || acc < 0 || acc > 1 {
		t.Fatalf("RO acc = %q", cell)
	}
}

func TestFig12aOrderingCoarse(t *testing.T) {
	if testing.Short() {
		t.Skip("several NN trainings")
	}
	rep, err := Fig12a(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	get := func(m string) float64 {
		c, ok := rep.Cell(m, "mean acc")
		if !ok {
			t.Fatalf("row %s missing", m)
		}
		v, err := strconv.ParseFloat(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// The coarse invariant that must hold even at tiny scale: the
	// relational methods do not fall below the mode baseline by more than
	// noise allows.
	if get("RO") < get("MODE")-0.15 {
		t.Fatalf("RO (%.3f) far below MODE (%.3f)", get("RO"), get("MODE"))
	}
}

func TestAblationCombineRuns(t *testing.T) {
	rep, err := AblationCombine(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (RO/RN x concat/average)", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		acc, err := strconv.ParseFloat(row[1], 64)
		if err != nil || acc < 0 || acc > 1 {
			t.Fatalf("bad accuracy %q", row[1])
		}
	}
}

func TestMeasureRuntimesPositive(t *testing.T) {
	s := TinyScale()
	w := s.tmdbWorld()
	p, err := NewPipeline(w.DB, w.Embedding, extract.Options{}, s.ROParams, s.RNParams, s.dwConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	mf, dw, ro, rn, err := MeasureRuntimes(s, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]float64{
		"mf": mf.Seconds(), "dw": dw.Seconds(), "ro": ro.Seconds(), "rn": rn.Seconds(),
	} {
		if d <= 0 {
			t.Fatalf("%s runtime not positive", name)
		}
	}
}
