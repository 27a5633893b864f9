package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark from outside the program. Start and End are nanoseconds
// since the tracer was created; Parent is the id of the span that caused
// this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer times
// the call and records nothing, so the same code path serves the traced
// and the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span and returns how long fn took.
func (t *tracer) do(parent int, name string, fn func()) time.Duration {
	_, d := t.doID(parent, name, func(int) { fn() })
	return d
}

// doID is do for calls that have children: fn receives the new span's id
// to pass on as their parent.
func (t *tracer) doID(parent int, name string, fn func(id int)) (int, time.Duration) {
	if t == nil {
		start := time.Now()
		fn(0)
		return 0, time.Since(start)
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
	return id, end.Sub(start)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap
// (concurrent calls), so the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarizeSpans groups spans by name, ordered by total time.
func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	by := map[string]*spanSummary{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
		}
		a.Count++
		a.TotalMs += float64(s.End-s.Start) / 1e6
		a.SelfMs += float64(self[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMs != out[j].TotalMs {
			return out[i].TotalMs > out[j].TotalMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTrace stores raw spans and their per-name summary as JSON.
func writeTrace(path string, spans []span, summary []spanSummary) error {
	body, err := json.MarshalIndent(map[string]any{"summary": summary, "spans": spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// budgetRow accounts for one end-to-end quantity by the layer times
// beneath it: what the named children explain, and what they do not.
type budgetRow struct {
	Parent    string             `json:"parent"`
	Unit      string             `json:"unit"`
	Value     float64            `json:"value"`
	Children  map[string]float64 `json:"children"`
	Sum       float64            `json:"children_sum"`
	Remainder float64            `json:"unexplained"`
}

// budget builds a row; children map a name to a value already converted
// to the parent's unit.
func budget(parent, unit string, value float64, children map[string]float64) budgetRow {
	row := budgetRow{Parent: parent, Unit: unit, Value: value, Children: children}
	for _, v := range children {
		row.Sum += v
	}
	row.Remainder = value - row.Sum
	return row
}
