package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/datagen"
)

// newTestServer trains a small session with the ANN path forced on, so
// the endpoints exercise the HNSW serving stack end to end.
func newTestServer(t *testing.T) (*Server, []string) {
	t.Helper()
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 50, Dim: 16, Seed: 1})
	cfg := retro.Defaults()
	cfg.ANNThreshold = 1
	sess, err := retro.NewSession(w.DB, w.Embedding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	titles, err := w.DB.QueryText(`SELECT title FROM movies`)
	if err != nil || len(titles) == 0 {
		t.Fatalf("no seed titles (err=%v)", err)
	}
	return New(sess, Config{}), titles
}

func get(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	return do(t, h, httptest.NewRequest(http.MethodGet, url, nil))
}

func post(t *testing.T, h http.Handler, url, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	return do(t, h, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
}

func do(t *testing.T, h http.Handler, req *http.Request) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var payload map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("%s %s: non-JSON response %q", req.Method, req.URL, rec.Body.String())
		}
	}
	return rec, payload
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t)
	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: code %d body %v", rec.Code, body)
	}
}

func TestVectorEndpoint(t *testing.T) {
	s, titles := newTestServer(t)
	h := s.Handler()
	rec, body := get(t, h, "/v1/vector?table=movies&column=title&text="+queryEscape(titles[0]))
	if rec.Code != http.StatusOK {
		t.Fatalf("vector: code %d body %v", rec.Code, body)
	}
	vec, ok := body["vector"].([]any)
	if !ok || len(vec) != 16 {
		t.Fatalf("vector: want 16 floats, got %v", body["vector"])
	}

	rec, body = get(t, h, "/v1/vector?table=movies&column=title&text=definitely+not+a+movie")
	if rec.Code != http.StatusNotFound || errCode(body) != "not_found" {
		t.Fatalf("unknown value: code %d body %v, want 404 with not_found error", rec.Code, body)
	}
	rec, _ = get(t, h, "/v1/vector?table=movies")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing params: code %d, want 400", rec.Code)
	}
}

func TestNeighborsEndpointAndCache(t *testing.T) {
	s, titles := newTestServer(t)
	h := s.Handler()
	url := "/v1/neighbors?table=movies&column=title&text=" + queryEscape(titles[0]) + "&k=3"

	rec, body := get(t, h, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("neighbors: code %d body %v", rec.Code, body)
	}
	nbs, ok := body["neighbors"].([]any)
	if !ok || len(nbs) == 0 || len(nbs) > 3 {
		t.Fatalf("neighbors: bad result %v", body["neighbors"])
	}
	first := nbs[0].(map[string]any)
	if first["text"] == "" || first["column"] == "" {
		t.Fatalf("neighbors: malformed match %v", first)
	}
	if body["cached"] != false {
		t.Fatal("first query should be uncached")
	}

	// The identical query must come from the LRU cache.
	rec, body = get(t, h, url)
	if rec.Code != http.StatusOK || body["cached"] != true {
		t.Fatalf("second query not cached: code %d body %v", rec.Code, body)
	}

	// Error paths.
	if rec, _ := get(t, h, "/v1/neighbors?table=movies&column=title&text=nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown value: code %d, want 404", rec.Code)
	}
	if rec, _ := get(t, h, url[:len(url)-1]+"bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad k: code %d, want 400", rec.Code)
	}
	if rec, _ := post(t, h, "/v1/neighbors", "{}"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST neighbors: code %d, want 405", rec.Code)
	}
}

func TestAnalogyEndpoint(t *testing.T) {
	s, titles := newTestServer(t)
	h := s.Handler()
	ref := func(text string) map[string]string {
		return map[string]string{"table": "movies", "column": "title", "text": text}
	}
	okBody, _ := json.Marshal(map[string]any{
		"a": ref(titles[0]), "b": ref(titles[1]), "c": ref(titles[2]), "k": 4,
	})
	rec, body := post(t, h, "/v1/analogy", string(okBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("analogy: code %d body %v", rec.Code, body)
	}
	if ms, ok := body["matches"].([]any); !ok || len(ms) == 0 {
		t.Fatalf("analogy: no matches in %v", body)
	}

	missing, _ := json.Marshal(map[string]any{
		"a": ref(titles[0]), "b": ref(titles[1]), "c": ref("no such film"),
	})
	if rec, _ := post(t, h, "/v1/analogy", string(missing)); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown analogy term: code %d, want 404", rec.Code)
	}
	if rec, _ := post(t, h, "/v1/analogy", "{not json"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: code %d, want 400", rec.Code)
	}
}

func TestInsertEndpoint(t *testing.T) {
	s, titles := newTestServer(t)
	h := s.Handler()

	// Warm the cache so the insert's purge is observable.
	url := "/v1/neighbors?table=movies&column=title&text=" + queryEscape(titles[0]) + "&k=3"
	get(t, h, url)
	get(t, h, url)

	cols := columnCount(t, s, "movies")
	row := makeRow(cols, map[int]any{0: 99001, 1: "the served premiere", 2: "english"})
	reqBody, _ := json.Marshal(map[string]any{"table": "movies", "values": row})
	rec, body := post(t, h, "/v1/insert", string(reqBody))
	if rec.Code != http.StatusOK || body["inserted"] != true {
		t.Fatalf("insert: code %d body %v", rec.Code, body)
	}

	// The inserted value must be immediately queryable.
	rec, body = get(t, h, "/v1/neighbors?table=movies&column=title&text=the+served+premiere&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-insert neighbors: code %d body %v", rec.Code, body)
	}
	// And the cache was invalidated: the warmed query recomputes.
	if _, body := get(t, h, url); body["cached"] != false {
		t.Fatal("cache not purged by insert")
	}

	// Error paths.
	if rec, _ := post(t, h, "/v1/insert", "{oops"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: code %d, want 400", rec.Code)
	}
	if rec, _ := post(t, h, "/v1/insert", `{"table":"nope","values":[]}`); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown table: code %d, want 404", rec.Code)
	}
	if rec, _ := post(t, h, "/v1/insert", `{"table":"movies","values":[1]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("arity mismatch: code %d, want 400", rec.Code)
	}
	dup, _ := json.Marshal(map[string]any{"table": "movies", "values": row})
	if rec, _ := post(t, h, "/v1/insert", string(dup)); rec.Code != http.StatusBadRequest {
		t.Fatalf("duplicate pk: code %d, want 400", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, titles := newTestServer(t)
	h := s.Handler()
	get(t, h, "/v1/neighbors?table=movies&column=title&text="+queryEscape(titles[0]))
	get(t, h, "/v1/vector?table=movies&column=title&text=missing+thing") // one error

	rec, body := get(t, h, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: code %d", rec.Code)
	}
	ann, ok := body["ann"].(map[string]any)
	if !ok || ann["enabled"] != true || ann["built"] != true {
		t.Fatalf("stats.ann: %v", body["ann"])
	}
	eps, ok := body["endpoints"].(map[string]any)
	if !ok {
		t.Fatalf("stats.endpoints: %v", body["endpoints"])
	}
	vecStats, ok := eps["/v1/vector"].(map[string]any)
	if !ok || vecStats["count"].(float64) < 1 || vecStats["errors"].(float64) < 1 {
		t.Fatalf("stats for /v1/vector: %v", eps["/v1/vector"])
	}
	if _, ok := body["cache"].(map[string]any); !ok {
		t.Fatalf("stats.cache: %v", body["cache"])
	}
}

// TestConcurrentReadsDuringInsert drives many readers against the server
// while rows are being inserted; run with -race this doubles as the data
// race check for the RWMutex + lazy-ANN-build + LRU paths.
func TestConcurrentReadsDuringInsert(t *testing.T) {
	s, titles := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const readers, reads = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, 2*readers*reads+10)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				title := titles[(g*reads+i)%len(titles)]
				// Alternate the endpoints so stats (which introspects the
				// live ANN index) races against the inserts too.
				url := ts.URL + "/v1/neighbors?table=movies&column=title&text=" + queryEscape(title) + "&k=3"
				if i%3 == 2 {
					url = ts.URL + "/v1/stats"
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(g)
	}

	cols := columnCount(t, s, "movies")
	for i := 0; i < 5; i++ {
		row := makeRow(cols, map[int]any{0: 88000 + i, 1: fmt.Sprintf("concurrent premiere %d", i), 2: "english"})
		reqBody, _ := json.Marshal(map[string]any{"table": "movies", "values": row})
		resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("insert %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// newSnapshotServer round-trips newTestServer's session through a
// snapshot and boots a second server from the loaded copy, the way
// `retro-serve -snapshot` does.
func newSnapshotServer(t *testing.T) (trained *Server, resumed *Server, titles []string) {
	t.Helper()
	trained, titles = newTestServer(t)
	trained.session().Model().Store().WarmANN()
	var buf bytes.Buffer
	if err := trained.session().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh, deterministic re-generation stands in for the new process.
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 50, Dim: 16, Seed: 1})
	sess, err := retro.ResumeSession(w.DB, w.Embedding, &buf)
	if err != nil {
		t.Fatal(err)
	}
	info := sess.Model().SnapshotInfo()
	resumed = New(sess, Config{Origin: &Origin{
		Source:        "snapshot",
		Path:          "test.snap",
		Created:       info.Created,
		FormatVersion: info.Version,
		Fingerprint:   info.Fingerprint,
	}})
	return trained, resumed, titles
}

// TestSnapshotBootedServer drives a server resumed from a snapshot
// through the full endpoint surface and requires it to behave exactly
// like the trained server it was cloned from: same neighbour payloads
// (k-clamp included), a working LRU cache, and inserts that re-link
// repaired values in place in the deserialised HNSW graph.
func TestSnapshotBootedServer(t *testing.T) {
	trained, resumed, titles := newSnapshotServer(t)
	ht, hs := trained.Handler(), resumed.Handler()

	// Neighbour parity for regular and clamped k (k=100000 must clamp to
	// the vocabulary size on both, not allocate against the raw k).
	for _, k := range []string{"3", "100000"} {
		url := "/v1/neighbors?table=movies&column=title&text=" + queryEscape(titles[0]) + "&k=" + k
		recT, bodyT := get(t, ht, url)
		recS, bodyS := get(t, hs, url)
		if recT.Code != http.StatusOK || recS.Code != http.StatusOK {
			t.Fatalf("k=%s: codes %d vs %d", k, recT.Code, recS.Code)
		}
		if bodyT["k"] != bodyS["k"] {
			t.Fatalf("k=%s: clamped to %v on trained, %v on snapshot", k, bodyT["k"], bodyS["k"])
		}
		nt := bodyT["neighbors"].([]any)
		ns := bodyS["neighbors"].([]any)
		if len(nt) != len(ns) {
			t.Fatalf("k=%s: %d vs %d neighbours", k, len(nt), len(ns))
		}
		for i := range nt {
			mt, ms := nt[i].(map[string]any), ns[i].(map[string]any)
			if mt["column"] != ms["column"] || mt["text"] != ms["text"] {
				t.Fatalf("k=%s rank %d: %v vs %v", k, i, ms, mt)
			}
		}
	}

	// The LRU cache behaves identically after a snapshot boot.
	url := "/v1/neighbors?table=movies&column=title&text=" + queryEscape(titles[1]) + "&k=3"
	if _, body := get(t, hs, url); body["cached"] != false {
		t.Fatal("first query cached")
	}
	if _, body := get(t, hs, url); body["cached"] != true {
		t.Fatal("second query not cached")
	}

	// Vector parity at float32 precision.
	vurl := "/v1/vector?table=movies&column=title&text=" + queryEscape(titles[0])
	_, bodyT := get(t, ht, vurl)
	_, bodyS := get(t, hs, vurl)
	vt := bodyT["vector"].([]any)
	vs := bodyS["vector"].([]any)
	if len(vt) != len(vs) {
		t.Fatalf("vector dims %d vs %d", len(vs), len(vt))
	}
	for j := range vt {
		if float64(float32(vt[j].(float64))) != vs[j].(float64) {
			t.Fatalf("vector dim %d: %v vs %v", j, vs[j], vt[j])
		}
	}

	// Analogy works against the loaded store.
	ref := func(text string) map[string]string {
		return map[string]string{"table": "movies", "column": "title", "text": text}
	}
	okBody, _ := json.Marshal(map[string]any{"a": ref(titles[0]), "b": ref(titles[1]), "c": ref(titles[2]), "k": 4})
	if rec, body := post(t, hs, "/v1/analogy", string(okBody)); rec.Code != http.StatusOK {
		t.Fatalf("analogy on snapshot server: code %d body %v", rec.Code, body)
	}

	// Insert after load: the deserialised HNSW graph is maintained in
	// place, and the new value is immediately queryable. Exercise an
	// overwrite too by inserting a row whose title reuses an existing one
	// — the shared value vector is re-solved, which re-links its node in
	// its slot of the loaded graph.
	if resumed.session().Model().Store().ANNIndex() == nil {
		t.Fatal("resumed server has no adopted index")
	}
	cols := columnCount(t, resumed, "movies")
	row := makeRow(cols, map[int]any{0: 97001, 1: "the snapshot premiere", 2: "english"})
	reqBody, _ := json.Marshal(map[string]any{"table": "movies", "values": row})
	if rec, body := post(t, hs, "/v1/insert", string(reqBody)); rec.Code != http.StatusOK {
		t.Fatalf("insert into snapshot server: code %d body %v", rec.Code, body)
	}
	dupTitle := makeRow(cols, map[int]any{0: 97002, 1: titles[0], 2: "english"})
	reqBody, _ = json.Marshal(map[string]any{"table": "movies", "values": dupTitle})
	if rec, body := post(t, hs, "/v1/insert", string(reqBody)); rec.Code != http.StatusOK {
		t.Fatalf("dup-title insert into snapshot server: code %d body %v", rec.Code, body)
	}
	if rec, body := get(t, hs, "/v1/neighbors?table=movies&column=title&text=the+snapshot+premiere&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("post-insert neighbours: code %d body %v", rec.Code, body)
	} else if len(body["neighbors"].([]any)) == 0 {
		t.Fatal("post-insert neighbours empty")
	}
	if resumed.session().Model().Store().ANNIndex() == nil {
		t.Fatal("insert dropped the adopted index instead of maintaining it")
	}
}

// TestStatsOrigin checks the provenance block of /v1/stats for both boot
// modes.
func TestStatsOrigin(t *testing.T) {
	trained, resumed, _ := newSnapshotServer(t)

	_, body := get(t, trained.Handler(), "/v1/stats")
	origin, ok := body["origin"].(map[string]any)
	if !ok || origin["source"] != "trained" {
		t.Fatalf("trained origin: %v", body["origin"])
	}

	_, body = get(t, resumed.Handler(), "/v1/stats")
	origin, ok = body["origin"].(map[string]any)
	if !ok || origin["source"] != "snapshot" {
		t.Fatalf("snapshot origin: %v", body["origin"])
	}
	if origin["snapshot_path"] != "test.snap" || origin["format_version"].(float64) < 1 {
		t.Fatalf("snapshot origin fields: %v", origin)
	}
	if age, ok := origin["snapshot_age_seconds"].(float64); !ok || age < 0 {
		t.Fatalf("snapshot_age_seconds: %v", origin["snapshot_age_seconds"])
	}
	if _, ok := origin["fingerprint"].(string); !ok {
		t.Fatalf("fingerprint: %v", origin["fingerprint"])
	}
}

// --- helpers ---------------------------------------------------------------

func queryEscape(s string) string {
	return strings.ReplaceAll(s, " ", "+")
}

func columnCount(t *testing.T, s *Server, table string) []string {
	t.Helper()
	tbl, ok := s.session().DB().Table(table)
	if !ok {
		t.Fatalf("no table %q", table)
	}
	names := make([]string, len(tbl.Columns))
	for i, c := range tbl.Columns {
		names[i] = c.Name
	}
	return names
}

// makeRow builds a full-width row with nulls everywhere except the given
// positional overrides (the TMDB movies schema's leading columns are id,
// title, overview — all nullable apart from the integer primary key).
func makeRow(cols []string, set map[int]any) []any {
	row := make([]any, len(cols))
	for i, v := range set {
		row[i] = v
	}
	return row
}

// newQuantTestServer is newTestServer with SQ8 candidate generation on.
func newQuantTestServer(t *testing.T) (*Server, []string) {
	t.Helper()
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 50, Dim: 16, Seed: 1})
	cfg := retro.Defaults()
	cfg.ANNThreshold = 1
	cfg.Quantization = retro.QuantSQ8
	cfg.RerankFactor = 5
	sess, err := retro.NewSession(w.DB, w.Embedding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	titles, err := w.DB.QueryText(`SELECT title FROM movies`)
	if err != nil || len(titles) == 0 {
		t.Fatalf("no seed titles (err=%v)", err)
	}
	return New(sess, Config{}), titles
}

// TestQuantizedServing: a server configured for SQ8 serves neighbours
// from the quantized index, reports the mode and re-rank depth in
// /v1/stats, and keeps both across an insert (incremental code
// maintenance + view republication).
func TestQuantizedServing(t *testing.T) {
	s, titles := newQuantTestServer(t)
	h := s.Handler()

	rec, body := get(t, h, "/v1/neighbors?table=movies&column=title&text="+queryEscape(titles[0])+"&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("quantized neighbors: code %d body %v", rec.Code, body)
	}
	if got := body["neighbors"].([]any); len(got) != 3 {
		t.Fatalf("quantized neighbors: %d results", len(got))
	}

	checkStats := func(stage string) {
		_, stats := get(t, h, "/v1/stats")
		ann, ok := stats["ann"].(map[string]any)
		if !ok {
			t.Fatalf("%s: stats.ann missing: %v", stage, stats)
		}
		if ann["quantization"] != "sq8" {
			t.Fatalf("%s: stats.ann.quantization = %v, want sq8", stage, ann["quantization"])
		}
		if ann["rerank"].(float64) != 5 {
			t.Fatalf("%s: stats.ann.rerank = %v, want 5", stage, ann["rerank"])
		}
		if ann["quantized"] != true {
			t.Fatalf("%s: stats.ann.quantized = %v, want true", stage, ann["quantized"])
		}
	}
	checkStats("boot")

	// Recombine in-vocabulary words so the new value tokenizes to a
	// non-zero vector (an OOV title would embed to zero and legitimately
	// have no neighbours).
	freshTitle := strings.Fields(titles[0])[0] + " " + strings.Fields(titles[1])[0] + " reprise"
	row, _ := json.Marshal(map[string]any{"table": "movies",
		"values": []any{9001, freshTitle, nil, nil, nil, nil, nil, nil}})
	if rec, body := post(t, h, "/v1/insert", string(row)); rec.Code != http.StatusOK {
		t.Fatalf("insert on quantized server: code %d body %v", rec.Code, body)
	}
	rec, body = get(t, h, "/v1/neighbors?table=movies&column=title&text="+queryEscape(freshTitle)+"&k=3")
	if rec.Code != http.StatusOK || len(body["neighbors"].([]any)) != 3 {
		t.Fatalf("inserted value not servable on quantized index: code %d body %v", rec.Code, body)
	}
	checkStats("after insert")
}
