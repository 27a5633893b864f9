package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallingServer answers at once, except that its 100th request holds a
// lock every request takes for 200 ms: the whole server stalls once.
func stallingServer() *httptest.Server {
	var mu sync.Mutex
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == 100 {
			time.Sleep(200 * time.Millisecond)
		}
		mu.Unlock()
		io.WriteString(w, "ok")
	}))
}

func getter(url string) func() bool {
	return func() bool {
		resp, err := http.Get(url)
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
}

func slowerThan(ss []sample, d time.Duration) int {
	n := 0
	for _, s := range ss {
		if s.ok && s.latency >= d {
			n++
		}
	}
	return n
}

// The open loop keeps its schedule through the stall, so every request
// that came due meanwhile is counted with the wait it suffered — about
// 500/s × 0.2 s of them — and the generator reports how late it sent
// them. A closed loop would have sent two requests into the stall and
// waited: that contrast is coordinated omission.
func TestOpenLoopCountsAStallFromTheDueTime(t *testing.T) {
	srv := stallingServer()
	defer srv.Close()
	get := getter(srv.URL)
	open := openLoop("open", 500, time.Second, 2, func(int) bool { return get() })
	if open.Attempted != 500 || open.Failed != 0 {
		t.Fatalf("open loop: attempted %d, failed %d", open.Attempted, open.Failed)
	}
	openSlow := slowerThan(open.samples, 50*time.Millisecond)
	if openSlow < 50 {
		t.Errorf("the 200 ms stall reached %d requests; an open loop at 500/s must show it in at least 50", openSlow)
	}
	if late := open.latenessP99Ms(); late < 50 {
		t.Errorf("lateness p99 = %.1f ms: the generator ran ~200 ms late behind the stall and must say so", late)
	}
	if p99 := percentile(latenciesMs(open.samples), 99); p99 < 100 {
		t.Errorf("p99 = %.1f ms: requests queued behind the stall lost their wait", p99)
	}

	srv2 := stallingServer()
	defer srv2.Close()
	get2 := getter(srv2.URL)
	closed := closedLoop("closed", time.Second, 2, func(int, int) (bool, bool) { return get2(), true })
	// Only the two requests in flight can see the stall (a busy sandbox may
	// add a hiccup of its own, hence the margin and not "at most 2").
	if n := slowerThan(closed.samples, 50*time.Millisecond); 4*n > openSlow {
		t.Errorf("closed loop with two clients: %d slow requests against the open loop's %d", n, openSlow)
	}
}

func TestOpenLoopReportsAGrowingBacklog(t *testing.T) {
	// One worker, 5 ms per operation, due every 1 ms: the backlog grows
	// for as long as the phase lasts.
	p := openLoop("overload", 1000, 500*time.Millisecond, 1, func(int) bool {
		time.Sleep(5 * time.Millisecond)
		return true
	})
	if !p.backlogGrew() {
		t.Error("a generator five times slower than its schedule must report a growing backlog")
	}
}

func TestClosedLoopStopsWhenInputRunsOut(t *testing.T) {
	p := closedLoop("short", time.Second, 1, func(_, i int) (bool, bool) { return true, i < 7 })
	if p.Attempted != 7 || p.Failed != 0 {
		t.Errorf("attempted %d, failed %d; want 7 and 0", p.Attempted, p.Failed)
	}
	if p.Wall > 500*time.Millisecond {
		t.Errorf("ran %v after its input ended", p.Wall)
	}
}
