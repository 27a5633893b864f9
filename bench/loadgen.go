package main

import (
	"sort"
	"sync"
	"time"
)

// maxBacklog is how far behind its schedule the open-loop generator may
// fall before it stops sending and counts the operation as failed: a
// backlog that deep means the system is far past saturation at this
// rate, and sending on would stretch the phase beyond the run's time
// budget. It is generous because the shared sandbox now and then loses
// most of its CPU to its neighbours for seconds on end.
const maxBacklog = 10 * time.Second

// phaseResult is what one load phase did.
type phaseResult struct {
	Name      string        `json:"name"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Wall      time.Duration `json:"-"`
	WallS     float64       `json:"wall_s"`
	length    time.Duration // scheduled length (open loop)
	samples   []sample
}

func (p *phaseResult) succeeded() int { return p.Attempted - p.Failed }

// openLoop issues rate*length operations on a fixed schedule, whatever
// the system's speed: operation i is nominally due at i/rate. One pacer
// owns the schedule; at each of its wake-ups it releases every operation
// whose nominal time has come onto a queue that `workers` goroutines (one
// connection each) drain. The pacer never waits for a worker, so when a
// stall keeps every worker busy the operations released meanwhile queue
// up and carry the wait they were made to suffer (no coordinated
// omission).
//
// Latency runs from the release to the completion. The release, not the
// nominal time, is the arrival: timers on the sandbox's kernel fire on a
// ~1.1 ms tick, so the pacer wakes up to a tick late and releases what
// came due in a small burst — an arrival process of its own right, whose
// timer error must not be booked as the server's latency. How late each
// operation left relative to its nominal time (coarse timers and busy
// workers alike) is kept per sample as the generator's own health signal.
func openLoop(name string, rate float64, length time.Duration, workers int, op func(i int) bool) phaseResult {
	total := int(rate * length.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, total)
	type job struct {
		i       int
		release time.Duration
	}
	// Sized to the number of sends: the pacer must never block on a
	// stalled worker, or the stall would thin out the arrivals.
	queue := make(chan job, total)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				due := time.Duration(j.i) * interval
				late := time.Since(start) - due
				if late > maxBacklog {
					samples[j.i] = sample{due: due, late: late}
					continue
				}
				ok := op(j.i)
				samples[j.i] = sample{due: due, late: late, latency: time.Since(start) - j.release, ok: ok}
			}
		}()
	}
	for released := 0; released < total; {
		if wait := time.Duration(released)*interval - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Since(start)
		for released < total && time.Duration(released)*interval <= now {
			queue <- job{released, now}
			released++
		}
	}
	close(queue)
	wg.Wait()
	res := phaseResult{Name: name, Attempted: total, Wall: time.Since(start), length: length, samples: samples}
	for _, s := range samples {
		if !s.ok {
			res.Failed++
		}
	}
	res.WallS = res.Wall.Seconds()
	return res
}

// closedLoop runs `workers` clients that each send their next operation
// only after the previous one completed, until the length has passed or
// op reports that it ran out of input. It measures capacity — a slower
// system simply receives less load — and each operation's latency from
// its own send.
func closedLoop(name string, length time.Duration, workers int, op func(worker, i int) (ok, more bool)) phaseResult {
	perWorker := make([][]sample, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Since(start) < length; i++ {
				sent := time.Since(start)
				ok, more := op(w, i)
				if !more {
					return
				}
				perWorker[w] = append(perWorker[w], sample{due: sent, latency: time.Since(start) - sent, ok: ok})
			}
		}(w)
	}
	wg.Wait()
	res := phaseResult{Name: name, Wall: time.Since(start), length: length}
	for _, ss := range perWorker {
		res.samples = append(res.samples, ss...)
	}
	res.Attempted = len(res.samples)
	for _, s := range res.samples {
		if !s.ok {
			res.Failed++
		}
	}
	res.WallS = res.Wall.Seconds()
	return res
}

// rate is completed operations per second of wall time.
func (p *phaseResult) rate() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.succeeded()) / p.Wall.Seconds()
}

// latenessP99Ms is the 99th percentile of how late the generator sent
// its operations — a saturated generator, not the system under test.
func (p *phaseResult) latenessP99Ms() float64 {
	late := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		late = append(late, float64(s.late)/1e6)
	}
	sort.Float64s(late)
	return percentile(late, 99)
}

// backlogGrew reports whether the generator ended the phase further
// behind schedule than it was a quarter of the way in: the signature of
// a rate the system cannot sustain.
func (p *phaseResult) backlogGrew() bool {
	n := len(p.samples)
	if n < 8 {
		return false
	}
	mean := func(ss []sample) float64 {
		var sum float64
		for _, s := range ss {
			sum += float64(s.late)
		}
		return sum / float64(len(ss))
	}
	early, late := mean(p.samples[n/8:n/4]), mean(p.samples[n-n/8:])
	return late > early+float64(5*time.Millisecond)
}
