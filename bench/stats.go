package main

import (
	"math"
	"sort"
	"time"
)

// dist summarises one timed quantity: every number the harness reports
// is a median with its quartiles and the sample count behind it.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median and quartiles of xs. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here is the one the acceptance driver computes.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return dist{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	return dist{N: len(s), Q1: quartile(s, 1), Median: quartile(s, 2), Q3: quartile(s, 3)}
}

// quartile is the i-th of the three exclusive-method cut points of the
// sorted sample s (len(s) >= 2).
func quartile(s []float64, i int) float64 {
	const n = 4
	m := len(s) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > len(s)-1 {
		j = len(s) - 1
	}
	// After clamping, delta may leave [0, n]: the cut point is then
	// extrapolated from the two outermost samples, as Python does.
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise measure every regression bound is judged against.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supportedPercentiles are the tail percentiles the harness may report,
// ascending.
var supportedPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestSupported returns the highest percentile that still has at
// least ten of n samples beyond it, or 0 when not even the median does
// (n < 20): a tail read off fewer samples is one outlier, not a tail.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range supportedPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-6 { // the slack absorbs 100-99.9 not being 0.1
			best = p
		}
	}
	return best
}

// sample is one completed operation of a load phase.
type sample struct {
	due     time.Duration // nominal send time, offset from the phase start
	late    time.Duration // actual send − due: how late the generator ran
	latency time.Duration // completion − release onto the generator's queue
	ok      bool
}

// latenciesMs returns the ascending latencies of the successful samples
// in milliseconds.
func latenciesMs(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, float64(s.latency)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// windowPercentiles cuts a phase of the given length into `windows` equal
// windows by due time and returns the p-th percentile of each window's
// successful latencies (ms); empty windows are skipped. The median of
// these is the tail the harness reports: one noisy-neighbour burst lands
// in one window and cannot move it, a sustained regression moves every
// window.
func windowPercentiles(ss []sample, length time.Duration, windows int, p float64) []float64 {
	if windows < 1 || length <= 0 {
		return nil
	}
	buckets := make([][]float64, windows)
	for _, s := range ss {
		if !s.ok {
			continue
		}
		w := int(int64(s.due) * int64(windows) / int64(length))
		if w < 0 {
			w = 0
		}
		if w >= windows {
			w = windows - 1
		}
		buckets[w] = append(buckets[w], float64(s.latency)/1e6)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		per = append(per, percentile(b, p))
	}
	return per
}

// windowedPercentile is the median window of windowPercentiles.
func windowedPercentile(ss []sample, length time.Duration, windows int, p float64) float64 {
	return median(windowPercentiles(ss, length, windows, p))
}

// median is a convenience over summarize.
func median(xs []float64) float64 { return summarize(xs).Median }
