package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/retrodb/retro/internal/ann"
	"github.com/retrodb/retro/internal/obs"
)

// scrape fetches /metrics off the admin handler and returns the raw
// exposition.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	return rec.Body.String()
}

// TestMetricsExpositionValid drives real traffic (hits, misses, a miss
// on a missing key, an insert) and then checks the full exposition is
// structurally valid Prometheus text format and covers every metric
// group the telemetry layer promises.
func TestMetricsExpositionValid(t *testing.T) {
	s, titles := newTestServer(t)
	h := s.Handler()

	url := "/v1/neighbors?table=movies&column=title&text=" + queryEscape(titles[0]) + "&k=5"
	for i := 0; i < 3; i++ { // one miss, two hits
		rec, _ := get(t, h, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("neighbors: status %d", rec.Code)
		}
	}
	get(t, h, "/v1/neighbors?table=movies&column=title&text=no-such-title&k=5")
	rec, _ := post(t, h, "/v1/insert",
		`{"table":"movies","values":[9001,"telemetry premiere","english",null,null,null,null,null]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d body %s", rec.Code, rec.Body.String())
	}

	out := scrape(t, s)
	if err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		`retro_query_stage_duration_seconds_bucket{stage="cache_lookup"`,
		`retro_query_stage_duration_seconds_bucket{stage="graph_walk"`,
		`retro_query_stage_duration_seconds_bucket{stage="rerank"`,
		`retro_query_stage_duration_seconds_bucket{stage="encode"`,
		"retro_ann_hops_count",
		"retro_ann_nodes_visited_count",
		`retro_http_requests_total{endpoint="/v1/neighbors"}`,
		`retro_http_request_duration_seconds_bucket{endpoint="/v1/neighbors"`,
		"retro_insert_rows_count 1",
		"retro_inserts_total 1",
		"retro_repair_duration_seconds_count 1",
		`retro_repair_stage_duration_seconds_count{stage="solve"} 1`,
		`retro_repair_stage_duration_seconds_count{stage="index"} 1`,
		"retro_repair_nodes_count 1",
		"retro_repair_relinked_nodes_count 1",
		"retro_view_epoch 1",
		"retro_view_swaps_total 1",
		"retro_view_publish_duration_seconds_count 2",
		"retro_cache_hits_total 2",
		"retro_session_stale 0",
		"retro_num_values",
		`retro_store_bytes{component="matrix"}`,
		`retro_store_bytes{component="norms"}`,
		`retro_store_bytes{component="graph_vectors"}`,
		`retro_store_bytes{component="codes"}`,
		`retro_store_bytes{component="adjacency"}`,
		`retro_store_bytes{component="total"}`,
		"retro_goroutines",
		`retro_build_info{version="dev"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// /v1/stats carries the same repair accounting: the two stages of the
	// one incremental repair add up to its duration.
	_, stats := get(t, h, "/v1/stats")
	sess, _ := stats["session"].(map[string]any)
	secs, _ := sess["repair_seconds"].(map[string]any)
	total, _ := secs["total"].(float64)
	solve, _ := secs["solve"].(float64)
	index, _ := secs["index"].(float64)
	if sess["repairs"] != float64(1) || solve <= 0 || index <= 0 || math.Abs(solve+index-total) > 1e-6 {
		t.Fatalf("stats.session = %v, want 1 repair whose solve and index seconds are positive and sum to the total", sess)
	}
	if annStats, _ := stats["ann"].(map[string]any); annStats["built"] != true || annStats["tombstones"] != float64(0) {
		t.Fatalf("stats.ann = %v, want a built index without tombstones", stats["ann"])
	}
}

// TestReadyz covers the readiness ladder: ready after boot, 503 while
// the session is stale, ready again after a successful write clears
// the staleness.
func TestReadyz(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	rec, body := get(t, h, "/readyz")
	if rec.Code != http.StatusOK || body["ready"] != true {
		t.Fatalf("fresh server not ready: code %d body %v", rec.Code, body)
	}

	s.Session().MarkStale()
	rec, body = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("stale session still ready: code %d body %v", rec.Code, body)
	}
	if _, ok := body["reason"].(string); !ok {
		t.Fatalf("no reason in unready payload: %v", body)
	}
	// The admin handler serves the same probe.
	rec2 := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("admin readyz: code %d", rec2.Code)
	}

	// A successful write re-solves from scratch and clears the staleness.
	rec, _ = post(t, h, "/v1/insert",
		`{"table":"movies","values":[9002,"recovery premiere","english",null,null,null,null,null]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d body %s", rec.Code, rec.Body.String())
	}
	rec, body = get(t, h, "/readyz")
	if rec.Code != http.StatusOK || body["ready"] != true {
		t.Fatalf("recovered server not ready: code %d body %v", rec.Code, body)
	}
	if got := scrape(t, s); !strings.Contains(got, "retro_stale_transitions_total 1") {
		t.Fatalf("stale transition not counted:\n%s", got)
	}
}

// TestSlowQueryLogRecordsTracedQuery sets a zero-distance threshold so
// every query lands in the slow log, then checks the recorded entry
// carries the per-stage breakdown and the /debug/slowlog payload is
// well-formed.
func TestSlowQueryLogRecordsTracedQuery(t *testing.T) {
	s, titles := newTestServer(t)
	s.SlowLog().SetThreshold(time.Nanosecond)
	h := s.Handler()

	url := "/v1/neighbors?table=movies&column=title&text=" + queryEscape(titles[0]) + "&k=5"
	get(t, h, url) // miss: traced with walk stats
	get(t, h, url) // hit: traced as cached

	entries := s.SlowLog().Entries()
	if len(entries) != 2 {
		t.Fatalf("slowlog holds %d entries, want 2", len(entries))
	}
	hit, miss := entries[0], entries[1] // newest first
	if !hit.Cached || miss.Cached {
		t.Fatalf("cached flags wrong: hit=%+v miss=%+v", hit, miss)
	}
	if miss.Endpoint != "/v1/neighbors" || miss.Table != "movies" || miss.K != 5 {
		t.Fatalf("miss entry fields: %+v", miss)
	}
	if miss.WalkNs <= 0 || miss.Nodes <= 0 || miss.Hops <= 0 {
		t.Fatalf("miss entry has no traversal stats: %+v", miss)
	}
	if hit.WalkNs != 0 || hit.Nodes != 0 {
		t.Fatalf("cached entry reports a graph walk: %+v", hit)
	}
	if miss.TotalNs <= 0 || hit.TotalNs <= 0 {
		t.Fatalf("total latency missing: hit=%+v miss=%+v", hit, miss)
	}

	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slowlog", nil))
	var payload struct {
		Recorded int64           `json:"recorded"`
		Entries  []obs.SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("slowlog payload: %v\n%s", err, rec.Body.String())
	}
	if payload.Recorded != 2 || len(payload.Entries) != 2 {
		t.Fatalf("slowlog payload: %+v", payload)
	}
}

// TestInstrumentedCachedPathZeroAlloc proves the tentpole's hard
// constraint on the hit side: the cache-hit core plus everything the
// instrumented handler adds around it (stage histograms, slow-query
// check) stays allocation-free.
func TestInstrumentedCachedPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	s, titles := newTestServer(t)
	h := s.Handler()
	url := "/v1/neighbors?table=movies&column=title&text=" + queryEscape(titles[0]) + "&k=5"
	if rec, _ := get(t, h, url); rec.Code != http.StatusOK {
		t.Fatalf("warm: status %d", rec.Code)
	}
	epoch := s.currentView().epoch
	tel := s.tel
	allocs := testing.AllocsPerRun(500, func() {
		start := time.Now()
		body, ok := s.lookupNeighbors("movies", "title", titles[0], 5, epoch)
		if !ok || body == nil {
			t.Fatal("cache miss on warmed key")
		}
		dur := time.Since(start)
		tel.stageCache.ObserveDuration(dur)
		tel.stageEncode.ObserveDuration(dur)
		if tel.slow.Slow(time.Since(start)) {
			t.Fatal("default threshold flagged a cache hit as slow")
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented cached path allocated %.2f times per op, want 0", allocs)
	}
}

// TestInstrumentedUncachedTopKZeroAlloc proves the miss side: the ANN
// TopK with stats collection plus the histogram records the handler
// performs stays allocation-free (response encoding aside, which
// allocates the body by design).
func TestInstrumentedUncachedTopKZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	s, titles := newTestServer(t)
	v := s.acquireView()
	defer v.release()
	store := v.store
	id, ok := store.ID(storeKey("movies", "title", titles[0]))
	if !ok {
		t.Fatal("seed title not in store")
	}
	query := store.Vector(id)
	skip := func(x int) bool { return x == id }
	tel := s.tel
	var st ann.SearchStats
	dst := store.TopKAppendStats(query, 5, skip, nil, &st) // warm pools
	allocs := testing.AllocsPerRun(300, func() {
		dst = store.TopKAppendStats(query, 5, skip, dst[:0], &st)
		tel.stageWalk.Observe(float64(st.WalkNs) / 1e9)
		tel.stageRerank.Observe(float64(st.RerankNs) / 1e9)
		tel.annHops.Observe(float64(st.Hops))
		tel.annNodes.Observe(float64(st.Nodes))
	})
	if allocs != 0 {
		t.Fatalf("instrumented TopK allocated %.2f times per op, want 0", allocs)
	}
	if st.Nodes == 0 || len(dst) == 0 {
		t.Fatalf("stats or results empty: %+v, %d results", st, len(dst))
	}
}

// TestSnapshotSaveInstrumented checks WriteSnapshot lands in the save
// histogram.
func TestSnapshotSaveInstrumented(t *testing.T) {
	s, _ := newTestServer(t)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := scrape(t, s); !strings.Contains(got, "retro_snapshot_save_duration_seconds_count 1") {
		t.Fatalf("snapshot save not recorded:\n%s", got)
	}
}
