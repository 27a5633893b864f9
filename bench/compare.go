package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

const resultSchema = "retro-bench-e2e/1"

// resultFile is what -out writes: every run of an invocation.
type resultFile struct {
	Schema string    `json:"schema"`
	Runs   []*result `json:"runs"`
}

func loadResults(path string) (*resultFile, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// endToEndValues collects, per workload and end-to-end metric, the value
// of every untraced run in the file.
func (f *resultFile) endToEndValues() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// verdict judges b against a for one metric. A metric whose run-to-run
// spread is wider than its bound cannot show a regression of the bound's
// size and is reported unresolved, never "same"; a gain is only a gain
// when the medians differ by more than that spread. With fewer than three
// runs on a side there is no spread to judge by: a difference beyond the
// bound is then unresolved too, and nothing is called better.
func verdict(def metricDef, a, b dist) string {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return "missing"
	}
	spread := math.Max(a.spread(), b.spread())
	if spread > def.Bound {
		return "unresolved"
	}
	worsening := (b.Median - a.Median) / math.Abs(a.Median)
	if def.Better == "higher" {
		worsening = -worsening
	}
	if a.N < 3 || b.N < 3 {
		if math.Abs(worsening) > def.Bound {
			return "unresolved"
		}
		return "same"
	}
	switch {
	case worsening > def.Bound:
		return "worse"
	case worsening < 0 && -worsening > spread:
		return "better"
	}
	return "same"
}

// parityDetails are recorded values that must hold between two result
// files run-for-run (same workload and seed): the training losses may
// not move by more than 1e-6 relative in either direction, recall may
// not drop by more than 0.005 absolute.
var parityDetails = []struct {
	prefix   string
	relative bool
	tol      float64
}{
	{"loss_", true, 1e-6},
	{"recall_at_10", false, 0.005},
}

func detailValues(r *result) map[string]float64 {
	out := map[string]float64{}
	for _, d := range r.Details {
		out[d.Name] = d.Median
	}
	return out
}

// compareResults prints, per workload and end-to-end metric, both
// medians with their quartiles, the ratio with its base, the bound and
// the verdict. It reports true when anything is worse or a check failed.
func compareResults(w io.Writer, a, b *resultFile) bool {
	bad := false
	av, bv := a.endToEndValues(), b.endToEndValues()
	fmt.Fprintf(w, "\n%-12s %-15s %-4s %-6s %36s %36s %9s %6s  %s\n",
		"workload", "metric", "unit", "better", "a: median [q1, q3] n", "b: median [q1, q3] n", "b/a", "bound", "verdict")
	cell := func(d dist) string {
		if d.N == 0 {
			return "-"
		}
		return fmt.Sprintf("%.4g [%.4g, %.4g] %d", d.Median, d.Q1, d.Q3, d.N)
	}
	for _, wl := range workloads {
		for _, def := range endToEnd {
			da, db := summarize(av[wl.Name][def.Name]), summarize(bv[wl.Name][def.Name])
			if da.N == 0 && db.N == 0 {
				continue
			}
			v := verdict(def, da, db)
			ratio := "-"
			if da.N > 0 && db.N > 0 && da.Median != 0 {
				ratio = fmt.Sprintf("%.3f", db.Median/da.Median)
			}
			fmt.Fprintf(w, "%-12s %-15s %-4s %-6s %36s %36s %9s %5.0f%%  %s\n",
				wl.Name, def.Name, def.Unit, def.Better, cell(da), cell(db), ratio, 100*def.Bound, v)
			if v == "worse" {
				bad = true
			}
		}
	}

	// Failed checks, and recorded values that must agree run for run.
	bySeed := map[string]*result{}
	for _, r := range a.Runs {
		bySeed[fmt.Sprintf("%s/%d/%v", r.Workload, r.Seed, r.Trace)] = r
	}
	for _, f := range []*resultFile{a, b} {
		for _, r := range f.Runs {
			for _, c := range r.Checks {
				if !c.OK {
					fmt.Fprintf(w, "FAILED CHECK  %s seed %d: %s: %s\n", r.Workload, r.Seed, c.Name, c.Got)
					bad = true
				}
			}
		}
	}
	for _, rb := range b.Runs {
		ra := bySeed[fmt.Sprintf("%s/%d/%v", rb.Workload, rb.Seed, rb.Trace)]
		if ra == nil {
			continue
		}
		va, vb := detailValues(ra), detailValues(rb)
		for name, x := range va {
			y, ok := vb[name]
			if !ok {
				continue
			}
			for _, p := range parityDetails {
				if !strings.HasPrefix(name, p.prefix) {
					continue
				}
				diff := x - y // a drop
				if p.relative {
					diff = math.Abs(diff) / math.Abs(x)
				}
				if diff > p.tol {
					fmt.Fprintf(w, "PARITY  %s seed %d: %s was %.9g, is %.9g (tolerance %g)\n", rb.Workload, rb.Seed, name, x, y, p.tol)
					bad = true
				}
			}
		}
	}
	if !bad {
		fmt.Fprintln(w, "no metric worse than its bound; every check passed")
	}
	return bad
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b), nil
}
