package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, at the smoke
// sizes: the real child process is built, spawned, polled, killed with
// SIGKILL and respawned, every correctness check runs, and every metric
// of the contract must come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs retro-serve")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/traced"
			}
			w, trace := w, trace
			t.Run(name, func(t *testing.T) {
				h, err := newHarness(1, 1.5, true)
				if err != nil {
					t.Fatal(err)
				}
				defer h.close()
				res, err := h.run(w.Name, trace)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Got)
					}
				}
				if len(res.Checks) == 0 && !trace {
					t.Error("no correctness check ran")
				}
				line, err := res.contractLine()
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatalf("%v in %s", err, line)
				}
				if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
				}
				if len(got.Metrics) != len(defsFor(trace)) {
					t.Errorf("%d metrics, want %d", len(got.Metrics), len(defsFor(trace)))
				}
				if !trace {
					for name, m := range got.Metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
						}
					}
				}
				if leftovers, _ := filepath.Glob(filepath.Join(h.work, "*")); trace && len(res.Budget) < 4 {
					t.Errorf("traced run printed %d budget rows, want 4 (%d files in scratch)", len(res.Budget), len(leftovers))
				}
			})
		}
	}
	// The scratch directories are gone; only the cached child binary stays.
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(root, "bench", ".build", "run-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// contractJSON renders BENCHMARK.json from the program's own tables.
func contractJSON() []byte {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{
		Command:    []string{"go", "-C", "bench", "run", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload(w))
	}
	for _, d := range endToEnd {
		bound := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	body, _ := json.MarshalIndent(doc, "", "  ")
	return append(body, '\n')
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver reads,
// equal to the tables the program reports by, and inside the contract's
// limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		// Golden-file update: regenerate the contract from the tables.
		if err := os.WriteFile(path, contractJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(body))
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds != runSeconds || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want %d", doc.RunSeconds, runSeconds)
	}
	if want := []string{"go", "-C", "bench", "run", "."}; strings.Join(doc.Command, " ") != strings.Join(want, " ") {
		t.Errorf("command = %v, want %v", doc.Command, want)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range doc.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v, want %+v", i, w, workloads[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	match := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet or length", g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, want %v in (0, 0.25]", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	match("end_to_end", doc.EndToEnd, endToEnd, true)
	match("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(doc.EndToEnd), len(doc.PerLayer))
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
}
