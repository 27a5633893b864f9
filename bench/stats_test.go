package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	// Quartiles must equal Python's statistics.quantiles(xs, n=4), the
	// acceptance driver's spread definition.
	cases := []struct {
		name        string
		xs          []float64
		n           int
		q1, med, q3 float64
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"one", []float64{7}, 1, 7, 7, 7},
		{"two", []float64{1, 2}, 2, 0.75, 1.5, 2.25},
		{"ten", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 10, 2.75, 5.5, 8.25},
		{"three", []float64{1, 2, 4}, 3, 1, 2, 4},
		{"eleven", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 11, 3, 6, 9},
	}
	for _, c := range cases {
		d := summarize(c.xs)
		if d.N != c.n || !near(d.Q1, c.q1) || !near(d.Median, c.med) || !near(d.Q3, c.q3) {
			t.Errorf("%s: got n=%d q1=%v median=%v q3=%v, want n=%d q1=%v median=%v q3=%v",
				c.name, d.N, d.Q1, d.Median, d.Q3, c.n, c.q1, c.med, c.q3)
		}
	}
	if s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}).spread(); !near(s, 1) {
		t.Errorf("spread: got %v, want 1", s)
	}
}

func TestHighestSupported(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {9, 0}, {19, 0}, // degenerate: not even the median has ten samples beyond it
		{20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// 1000 samples over 10 s at 1 ms each, except one window (the 4th)
	// where everything takes 50 ms: the burst owns one window and must not
	// move the median window.
	var ss []sample
	for i := 0; i < 1000; i++ {
		lat := time.Millisecond
		if i >= 300 && i < 400 {
			lat = 50 * time.Millisecond
		}
		ss = append(ss, sample{due: time.Duration(i) * 10 * time.Millisecond, latency: lat, ok: true})
	}
	if got := windowedPercentile(ss, 10*time.Second, 10, 99); !near(got, 1) {
		t.Errorf("one burst window: got %v ms, want 1", got)
	}
	if got := percentile(latenciesMs(ss), 99); !near(got, 50) {
		t.Errorf("the plain p99 sees the burst: got %v ms, want 50", got)
	}
	// A sustained regression moves every window.
	for i := range ss {
		ss[i].latency = 3 * time.Millisecond
	}
	if got := windowedPercentile(ss, 10*time.Second, 10, 99); !near(got, 3) {
		t.Errorf("sustained: got %v ms, want 3", got)
	}
	// Failed samples are not latencies; empty windows are skipped.
	few := []sample{{due: 0, latency: time.Millisecond, ok: true}, {due: time.Second, latency: time.Hour}}
	if got := windowedPercentile(few, 10*time.Second, 10, 99); !near(got, 1) {
		t.Errorf("failed sample counted: got %v ms, want 1", got)
	}
	if got := windowedPercentile(nil, 10*time.Second, 10, 99); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: the union covers 10..60
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped at 100
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	sum := summarizeSpans(spans)
	if len(sum) != 5 || sum[0].Name != "root" || !near(sum[0].SelfMs, 40e-6) {
		t.Errorf("summary: %+v", sum)
	}
}

func TestTracerNilAndNesting(t *testing.T) {
	var off *tracer
	ran := false
	if d := off.do(0, "x", func() { ran = true }); !ran || d < 0 {
		t.Fatal("a nil tracer must still run the call")
	}
	tr := newTracer()
	parent, _ := tr.doID(0, "parent", func(id int) {
		tr.do(id, "child", func() { time.Sleep(time.Millisecond) })
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != parent || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("spans: %+v", tr.spans)
	}
}

func TestBudget(t *testing.T) {
	row := budget("parent", "s", 10, map[string]float64{"a": 3, "b": 4.5})
	if !near(row.Sum, 7.5) || !near(row.Remainder, 2.5) {
		t.Errorf("budget: %+v", row)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"m", "ms", "lower", 0.10}
	higher := metricDef{"m", "1/s", "higher", 0.10}
	tight := func(med float64) dist { return dist{N: 10, Median: med, Q1: med * 0.99, Q3: med * 1.01} }
	noisy := func(med float64) dist { return dist{N: 10, Median: med, Q1: med * 0.9, Q3: med * 1.1} }
	cases := []struct {
		name string
		def  metricDef
		a, b dist
		want string
	}{
		{"same", lower, tight(100), tight(101), "same"},
		{"worse", lower, tight(100), tight(115), "worse"},
		{"better", lower, tight(100), tight(90), "better"},
		{"within spread is not a gain", lower, tight(100), tight(99), "same"},
		{"higher is better: drop is worse", higher, tight(100), tight(85), "worse"},
		{"higher is better: rise is better", higher, tight(100), tight(110), "better"},
		{"spread wider than bound", lower, noisy(100), tight(130), "unresolved"},
		{"missing side", lower, tight(100), dist{}, "missing"},
		{"one run a side cannot be worse", lower, dist{N: 1, Median: 100, Q1: 100, Q3: 100}, dist{N: 1, Median: 150, Q1: 150, Q3: 150}, "unresolved"},
		{"one run a side cannot be better", lower, dist{N: 1, Median: 100, Q1: 100, Q3: 100}, dist{N: 1, Median: 90, Q1: 90, Q3: 90}, "same"},
	}
	for _, c := range cases {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}
