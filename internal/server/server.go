// Package server exposes a trained retro.Session over HTTP/JSON: the
// embedding serving subsystem. The read path is lock-free: every query
// loads an atomically published, immutable serving view (a frozen
// embedding store + HNSW index, see view.go) and runs against it without
// taking any lock; results are cached in a sharded CLOCK cache whose hit
// path neither locks exclusively nor allocates. Inserts serialise on a
// write mutex, mutate the live session under the store's copy-on-write
// discipline (published views are never perturbed) and install the
// successor view with a single pointer swap. Only the standard library
// is used.
//
// Endpoints:
//
//	GET  /healthz                 liveness
//	GET  /v1/stats                counters, cache, view and ANN introspection
//	GET  /v1/vector?table=&column=&text=
//	GET  /v1/neighbors?table=&column=&text=&k=
//	POST /v1/neighbors/batch      {"queries":[{"table","column","text","k"},...],"default_k":n}
//	POST /v1/analogy              {"a":{...},"b":{...},"c":{...},"k":n}
//	POST /v1/insert               {"table":"...","values":[...]}     single row
//	POST /v1/insert               {"table":"...","rows":[[...],...]} batch
//
// The API is batch-first: /v1/neighbors/batch answers Q queries with a
// single traversal of the index (see internal/ann TopKMany), and the
// single-query GET is a thin wrapper over the same core (see batch.go).
// Likewise a row batch commits all rows and performs ONE incremental
// repair, one index warm-up and one view publication — N single-row
// inserts pay each of those N times. Readers are never blocked by a
// write: queries that raced the insert finish on the previous view, and
// every query observes exactly one view (pre- or post-insert state,
// never a mix).
//
// Every error — top-level or per-item inside a batch — carries one
// envelope: {"error":{"code":"...","message":"..."}} with a stable
// machine-readable code (see errInvalidArgument and friends) and a
// human-readable message.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/ann"
	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/obs"
	"github.com/retrodb/retro/internal/repl"
)

// DefaultMaxBodyBytes bounds request bodies on the write and batch-query
// endpoints unless Config.MaxBodyBytes overrides it.
const DefaultMaxBodyBytes = 8 << 20

// Config tunes the server.
type Config struct {
	// CacheSize is the query-cache capacity in entries, spread across
	// GOMAXPROCS-aligned shards (default 1024, negative disables).
	CacheSize int
	// Origin records where the session came from (trained in-process vs
	// resumed from a snapshot); it is surfaced in /v1/stats. Nil means
	// trained.
	Origin *Origin
	// Logger receives the request log and write-path events (nil =
	// slog.Default()).
	Logger *slog.Logger
	// SlowQueryThreshold flags queries at or above this duration into
	// the slow-query log (0 = obs.DefaultSlowThreshold).
	SlowQueryThreshold time.Duration
	// SlowLogSize is the slow-query ring capacity (default 128).
	SlowLogSize int
	// Version is stamped into the retro_build_info metric (default
	// "dev").
	Version string
	// Engine, when set, is the storage engine backing the session: the
	// server surfaces its WAL and checkpoint counters in /v1/stats and
	// /metrics, maps WAL append failures onto their own error code,
	// exposes Checkpoint for the operator loop, and mounts the
	// /repl/v1/* replication API so followers can sync from this
	// process. The session must be the engine's own (Engine.Session()).
	Engine *retro.StorageEngine
	// ReadOnly rejects /v1/insert with the structured read_only error.
	// Set on read replicas, whose only writer is the replication stream
	// (which bypasses the HTTP surface via ApplyReplicated).
	ReadOnly bool
	// Replica, when set, reports the replication state of this follower:
	// /readyz gates on its lag policy and /v1/stats surfaces it. Nil on
	// a primary.
	Replica func() repl.Status
	// MaxBodyBytes caps request bodies on /v1/insert and
	// /v1/neighbors/batch; oversized requests get the structured
	// request_too_large error. 0 selects DefaultMaxBodyBytes, negative
	// disables the limit.
	MaxBodyBytes int64
}

// Origin describes the provenance of the served session.
type Origin struct {
	// Source is "trained" or "snapshot".
	Source string
	// Path is the snapshot file the session was resumed from.
	Path string
	// Created is when that snapshot was written (zero when trained).
	Created time.Time
	// FormatVersion is the snapshot format version.
	FormatVersion uint32
	// Fingerprint hashes the training configuration of the snapshot.
	Fingerprint uint64
}

// Server serves one live retro.Session. Snapshot-resumed and in-process
// trained sessions are served identically. Queries run against the
// published servingView; the session itself is touched only by writers
// holding writeMu (and by /v1/stats through the session's atomic
// staleness flag, which needs no lock).
type Server struct {
	// view is the atomically published immutable read state. Replaces
	// the server-wide RWMutex the read path used to funnel through.
	view atomic.Pointer[servingView]

	// writeMu serialises state changes: inserts, view publication and
	// snapshot writes. Readers never take it.
	writeMu sync.Mutex

	// sessP/engineP are atomic so a follower re-sync can swap in a fresh
	// engine (ReplaceEngine) while scrape-time metric closures and stats
	// renders keep reading whichever pair is current without a lock.
	// Writers swap both under writeMu; everything else goes through
	// session() / Engine().
	sessP   atomic.Pointer[retro.Session]
	engineP atomic.Pointer[retro.StorageEngine]

	cache   *shardedCache
	metrics metricsTable
	tel     *telemetry
	started time.Time
	origin  *Origin

	readOnly     bool
	maxBodyBytes int64
	replica      func() repl.Status
	replPrimary  *repl.Primary

	// View lifecycle accounting (see view.go). retired is guarded by
	// writeMu; the counters are atomics so /v1/stats reads them without
	// blocking behind a write in progress.
	retired        []*servingView
	swaps          atomic.Int64
	drained        atomic.Int64
	retiredWaiting atomic.Int64
}

// New wraps an already-trained (or snapshot-resumed) session and
// publishes its first serving view (warming the ANN index if the
// vocabulary calls for one, so no query ever pays the build).
func New(sess *retro.Session, cfg Config) *Server {
	size := cfg.CacheSize
	if size == 0 {
		size = 1024
	}
	s := &Server{
		started: time.Now(), origin: cfg.Origin,
		readOnly: cfg.ReadOnly, replica: cfg.Replica, maxBodyBytes: cfg.MaxBodyBytes,
	}
	s.sessP.Store(sess)
	if cfg.Engine != nil {
		s.engineP.Store(cfg.Engine)
	}
	if s.maxBodyBytes == 0 {
		s.maxBodyBytes = DefaultMaxBodyBytes
	}
	if s.origin == nil {
		s.origin = &Origin{Source: "trained"}
	}
	if size > 0 {
		s.cache = newShardedCache(size)
	}
	// Telemetry registers before the first publish so every instrument
	// (including the publish-duration histogram) exists when used.
	s.tel = newTelemetry(s, cfg)
	s.metrics.reg = s.tel.reg
	if cfg.Engine != nil {
		// Any storage-backed server can be replicated from; the getter
		// indirection keeps the handler streaming from the live engine
		// even after a follower re-sync swaps it.
		s.replPrimary = repl.NewPrimary(s.Engine, s.tel.log)
	}
	s.writeMu.Lock()
	s.publishLocked()
	s.writeMu.Unlock()
	return s
}

// session returns the currently served session (swapped on follower
// re-sync; see ReplaceEngine).
func (s *Server) session() *retro.Session { return s.sessP.Load() }

// Engine returns the storage engine backing the session, or nil when
// the server runs without a data directory.
func (s *Server) Engine() *retro.StorageEngine { return s.engineP.Load() }

// Handler returns the route table, each endpoint wrapped with latency and
// hit accounting and the whole mux wrapped with panic recovery. Build
// handlers before serving traffic; construction registers the
// per-endpoint counters that the request path then reads without any
// lock.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", "GET", s.handleHealthz))
	mux.HandleFunc("/readyz", s.instrument("/readyz", "GET", s.handleReadyz))
	mux.HandleFunc("/v1/stats", s.instrument("/v1/stats", "GET", s.handleStats))
	mux.HandleFunc("/v1/vector", s.instrument("/v1/vector", "GET", s.handleVector))
	mux.HandleFunc("/v1/neighbors", s.instrument("/v1/neighbors", "GET", s.handleNeighbors))
	mux.HandleFunc("/v1/neighbors/batch", s.instrument("/v1/neighbors/batch", "POST", s.handleNeighborsBatch))
	mux.HandleFunc("/v1/analogy", s.instrument("/v1/analogy", "POST", s.handleAnalogy))
	mux.HandleFunc("/v1/insert", s.instrument("/v1/insert", "POST", s.handleInsert))
	if s.replPrimary != nil {
		mux.Handle("/repl/v1/", s.replPrimary)
	}
	return s.recoverPanics(mux)
}

// recoverPanics converts a panicking handler into the structured
// `internal` error envelope (best effort — headers may already be out)
// and a retro_http_panics_total tick, instead of net/http killing the
// connection and, for panics outside a handler goroutine, the process.
// http.ErrAbortHandler is re-raised: it is the sanctioned way to abort a
// response and must keep its net/http semantics.
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.tel.panics.Inc()
			s.tel.log.Error("handler panic",
				"path", r.URL.Path, "method", r.Method, "panic", fmt.Sprint(rec))
			writeError(w, http.StatusInternalServerError, errInternal, "internal server error")
		}()
		h.ServeHTTP(w, r)
	})
}

// --- metrics ---------------------------------------------------------------

// endpointStats is one endpoint's counters. All fields are atomics; the
// request path never takes a lock to account a request.
type endpointStats struct {
	name    string
	Count   atomic.Int64
	Errors  atomic.Int64
	TotalNs atomic.Int64
	// dur is the endpoint's Prometheus latency histogram, registered
	// alongside the counters; nil only in tests that bypass New.
	dur *obs.Histogram
}

// metricsTable is the pre-registered endpoint table. Registration
// happens once, at Handler() construction; after that the table is an
// immutable slice behind an atomic pointer, so both the per-request
// accounting (which holds its *endpointStats directly) and the stats
// endpoint's iteration are lock-free. This replaces the old
// mutex-guarded map that every stats render serialised on.
type metricsTable struct {
	mu    sync.Mutex // guards registration only
	table atomic.Pointer[[]*endpointStats]
	// reg, when set, mirrors each endpoint's counters into Prometheus
	// series at registration time (scrape reads the same atomics the
	// request path writes — no second accounting).
	reg *obs.Registry
}

func (m *metricsTable) get(endpoint string) *endpointStats {
	if p := m.table.Load(); p != nil {
		for _, st := range *p {
			if st.name == endpoint {
				return st
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var cur []*endpointStats
	if p := m.table.Load(); p != nil {
		cur = *p
		for _, st := range cur {
			if st.name == endpoint {
				return st
			}
		}
	}
	st := &endpointStats{name: endpoint}
	if m.reg != nil {
		labels := `endpoint="` + endpoint + `"`
		st.dur = m.reg.Histogram("retro_http_request_duration_seconds",
			"HTTP request latency by endpoint, in seconds.", labels, obs.DurationBuckets())
		m.reg.CounterFunc("retro_http_requests_total",
			"HTTP requests by endpoint.", labels,
			func() float64 { return float64(st.Count.Load()) })
		m.reg.CounterFunc("retro_http_request_errors_total",
			"HTTP requests that returned a 4xx/5xx status, by endpoint.", labels,
			func() float64 { return float64(st.Errors.Load()) })
	}
	next := make([]*endpointStats, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = st
	m.table.Store(&next)
	return st
}

func (m *metricsTable) snapshot() []*endpointStats {
	if p := m.table.Load(); p != nil {
		return *p
	}
	return nil
}

// statusWriter records the response code for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(endpoint, method string, h http.HandlerFunc) http.HandlerFunc {
	st := s.metrics.get(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed,
				fmt.Sprintf("%s requires %s", endpoint, method))
			st.Count.Add(1)
			st.Errors.Add(1)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		st.Count.Add(1)
		st.TotalNs.Add(elapsed.Nanoseconds())
		if st.dur != nil {
			st.dur.ObserveDuration(elapsed)
		}
		if sw.status >= 400 {
			st.Errors.Add(1)
		}
		s.logRequest(r, endpoint, sw.status, elapsed)
	}
}

// logRequest is the structured request log: server errors at Warn so
// they surface under the default level, everything else at Debug (the
// Enabled check keeps production request logging free).
func (s *Server) logRequest(r *http.Request, endpoint string, status int, elapsed time.Duration) {
	if s.tel == nil {
		return
	}
	lg := s.tel.log
	level := slog.LevelDebug
	if status >= 500 {
		level = slog.LevelWarn
	}
	if !lg.Enabled(r.Context(), level) {
		return
	}
	lg.LogAttrs(r.Context(), level, "request",
		slog.String("endpoint", endpoint),
		slog.String("method", r.Method),
		slog.String("query", r.URL.RawQuery),
		slog.Int("status", status),
		slog.Duration("elapsed", elapsed),
		slog.String("remote", r.RemoteAddr),
	)
}

// --- JSON plumbing ---------------------------------------------------------

// Machine-readable error codes. Every error response — top-level or
// per-item in a batch — carries exactly one of these; clients branch on
// the code, the message is for humans. The set is append-only: codes
// are part of the API surface and never renamed.
const (
	errInvalidArgument  = "invalid_argument"   // missing/ill-typed parameter
	errMalformedJSON    = "malformed_json"     // request body failed to parse
	errNotFound         = "not_found"          // value, table or resource absent
	errMethodNotAllowed = "method_not_allowed" // wrong HTTP method for the route
	errBatchTooLarge    = "batch_too_large"    // batch exceeds maxBatchQueries
	errPartialCommit    = "partial_commit"     // row batch failed mid-way; see "committed"
	errRepairFailed     = "repair_failed"      // rows committed, embedding repair failed
	errWALFailed        = "wal_failed"         // rows committed in memory, WAL append failed
	errReadOnly         = "read_only"          // write on a read replica; send it to the primary
	errRequestTooLarge  = "request_too_large"  // body exceeds the -max-body-bytes cap
	errInternal         = "internal"           // handler panic; nothing was committed
)

// apiError is the wire form of one error: a stable code and a
// human-readable message.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the uniform error response body:
// {"error":{"code":"...","message":"..."}}.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{Error: apiError{Code: code, Message: msg}})
}

// limitBody caps the request body (write and batch-query endpoints);
// decode failures past the cap surface as *http.MaxBytesError, which
// writeDecodeError maps onto request_too_large.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	if s.maxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	}
}

// writeDecodeError maps a JSON decode failure onto the right envelope:
// request_too_large when the body limiter cut the read off, otherwise
// malformed_json.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, errRequestTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, errMalformedJSON, "malformed JSON: "+err.Error())
}

// encodeBody renders v the same way writeJSON does (trailing newline
// included) into a fresh byte slice.
func encodeBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	return buf.Bytes()
}

// valueRef addresses one text value of the database.
type valueRef struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	Text   string `json:"text"`
}

func refFromQuery(r *http.Request) (valueRef, error) {
	q := r.URL.Query()
	ref := valueRef{Table: q.Get("table"), Column: q.Get("column"), Text: q.Get("text")}
	if ref.Table == "" || ref.Column == "" || ref.Text == "" {
		return ref, fmt.Errorf("table, column and text query parameters are required")
	}
	return ref, nil
}

// storeKey is the embedding-store key for a (table, column, text) value:
// category name and raw text, exactly as extraction registers them. The
// read path resolves values directly against the frozen store with this
// key — it never touches the session.
func storeKey(table, column, text string) string {
	return table + "." + column + "\x00" + text
}

// match is one neighbour in a response. Key is the raw store key; the
// split fields are friendlier for clients.
type match struct {
	Column string  `json:"column"` // "table.column"
	Text   string  `json:"text"`
	Score  float64 `json:"score"`
}

func toMatches(ms []retro.Match) []match {
	out := make([]match, len(ms))
	for i, m := range ms {
		col, text, _ := strings.Cut(m.Word, "\x00")
		out[i] = match{Column: col, Text: text, Score: m.Score}
	}
	return out
}

// neighborsResponse is the /v1/neighbors payload. A struct (not a map)
// so the encoding is deterministic and the cached body for a key is a
// stable byte string. Cached MUST stay the last field: the cache stores
// the hit variant by patching the encoded suffix (see cachedVariant)
// instead of encoding the payload a second time.
type neighborsResponse struct {
	Query     valueRef `json:"query"`
	K         int      `json:"k"`
	Neighbors []match  `json:"neighbors"`
	Cached    bool     `json:"cached"`
}

const (
	missSuffix = `"cached":false}` + "\n"
	hitSuffix  = `"cached":true}` + "\n"
)

// cachedVariant derives the cached:true body from an encoded
// cached:false response by swapping the fixed trailing token, so a miss
// encodes the (potentially large) neighbour list exactly once. Returns
// nil if the body does not end as expected (never the case for
// neighborsResponse; checked so a future field reorder fails safe to
// "don't cache" instead of serving a corrupt payload).
func cachedVariant(body []byte) []byte {
	if !bytes.HasSuffix(body, []byte(missSuffix)) {
		return nil
	}
	head := len(body) - len(missSuffix)
	out := make([]byte, 0, head+len(hitSuffix))
	out = append(out, body[:head]...)
	return append(out, hitSuffix...)
}

// --- handlers --------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// vectorResponse is the /v1/vector payload. A struct for the same
// reason as neighborsResponse: deterministic encoding makes the body
// cacheable, and Cached last keeps cachedVariant applicable.
type vectorResponse struct {
	Table  string    `json:"table"`
	Column string    `json:"column"`
	Text   string    `json:"text"`
	Dim    int       `json:"dim"`
	Vector []float64 `json:"vector"`
	Cached bool      `json:"cached"`
}

// appendVectorKey renders the cache key for a vector lookup; the 'v'
// prefix keeps it disjoint from neighbours ('n') and analogy ('a') keys.
func appendVectorKey(b []byte, table, column, text string) []byte {
	b = append(b, 'v', 0)
	b = append(b, table...)
	b = append(b, 0)
	b = append(b, column...)
	b = append(b, 0)
	return append(b, text...)
}

func (s *Server) handleVector(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t := s.tel
	ref, err := refFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, errInvalidArgument, err.Error())
		return
	}
	v := s.currentView()
	cacheStart := time.Now()
	var body []byte
	var hit bool
	if s.cache != nil {
		ks := keyScratchPool.Get().(*keyScratch)
		ks.buf = appendVectorKey(ks.buf[:0], ref.Table, ref.Column, ref.Text)
		body, hit = s.cache.Get(ks.buf, v.epoch)
		keyScratchPool.Put(ks)
	}
	cacheDur := time.Since(cacheStart)
	t.stageCache.ObserveDuration(cacheDur)
	if !hit {
		pv := s.acquireView()
		id, ok := pv.store.ID(storeKey(ref.Table, ref.Column, ref.Text))
		if !ok {
			pv.release()
			writeError(w, http.StatusNotFound, errNotFound,
				fmt.Sprintf("no value %q in %s.%s", ref.Text, ref.Table, ref.Column))
			return
		}
		vector := pv.store.Vector(id)
		body = encodeBody(vectorResponse{
			Table: ref.Table, Column: ref.Column, Text: ref.Text,
			Dim: len(vector), Vector: vector,
		})
		if s.cache != nil {
			if hitBody := cachedVariant(body); hitBody != nil {
				ks := keyScratchPool.Get().(*keyScratch)
				ks.buf = appendVectorKey(ks.buf[:0], ref.Table, ref.Column, ref.Text)
				s.cache.Put(ks.buf, pv.epoch, hitBody)
				keyScratchPool.Put(ks)
			}
		}
		pv.release()
	}
	encodeStart := time.Now()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	encodeDur := time.Since(encodeStart)
	t.stageEncode.ObserveDuration(encodeDur)
	if total := time.Since(start); t.slow.Slow(total) {
		t.slow.Record(obs.SlowEntry{
			Time: start, Endpoint: "/v1/vector",
			Table: ref.Table, Column: ref.Column, Text: ref.Text,
			Cached: hit, TotalNs: total.Nanoseconds(),
			CacheNs: cacheDur.Nanoseconds(), EncodeNs: encodeDur.Nanoseconds(),
		})
	}
}

// keyScratch pools the cache-key build buffer so the hit path allocates
// nothing.
type keyScratch struct{ buf []byte }

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// appendNeighborsKey renders the cache key for a neighbours query. NUL
// separators cannot occur inside table/column names or clash with the
// decimal k, so distinct queries never collide.
func appendNeighborsKey(b []byte, table, column, text string, k int) []byte {
	b = append(b, 'n', 0)
	b = append(b, table...)
	b = append(b, 0)
	b = append(b, column...)
	b = append(b, 0)
	b = append(b, text...)
	b = append(b, 0)
	return strconv.AppendInt(b, int64(k), 10)
}

// lookupNeighbors probes the cache for a pre-encoded response computed
// under the given view epoch. Steady-state hits perform zero heap
// allocations: pooled key buffer, byte-keyed map probe, atomic recency
// bit, and the returned body is written to the client verbatim.
func (s *Server) lookupNeighbors(table, column, text string, k int, epoch uint64) ([]byte, bool) {
	if s.cache == nil {
		return nil, false
	}
	ks := keyScratchPool.Get().(*keyScratch)
	ks.buf = appendNeighborsKey(ks.buf[:0], table, column, text, k)
	body, ok := s.cache.Get(ks.buf, epoch)
	keyScratchPool.Put(ks)
	return body, ok
}

// handleNeighbors (single-query GET) and handleNeighborsBatch both live
// in batch.go, as thin faces over the shared neighborsCore.

// analogyResponse is the /v1/analogy payload; like the other cacheable
// responses, Cached stays last so cachedVariant applies.
type analogyResponse struct {
	A       valueRef `json:"a"`
	B       valueRef `json:"b"`
	C       valueRef `json:"c"`
	K       int      `json:"k"`
	Matches []match  `json:"matches"`
	Cached  bool     `json:"cached"`
}

// appendAnalogyKey renders the cache key for an analogy query: the 'a'
// prefix, the three value references and the decimal k.
func appendAnalogyKey(b []byte, refs *[3]valueRef, k int) []byte {
	b = append(b, 'a', 0)
	for _, ref := range refs {
		b = append(b, ref.Table...)
		b = append(b, 0)
		b = append(b, ref.Column...)
		b = append(b, 0)
		b = append(b, ref.Text...)
		b = append(b, 0)
	}
	return strconv.AppendInt(b, int64(k), 10)
}

func (s *Server) handleAnalogy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t := s.tel
	var req struct {
		A valueRef `json:"a"`
		B valueRef `json:"b"`
		C valueRef `json:"c"`
		K int      `json:"k"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, errMalformedJSON, "malformed JSON: "+err.Error())
		return
	}
	if req.K <= 0 {
		req.K = 10
	}
	v := s.currentView()
	if req.K > v.numValues {
		req.K = v.numValues
	}
	refs := [3]valueRef{req.A, req.B, req.C}
	cacheStart := time.Now()
	var body []byte
	var hit bool
	if s.cache != nil {
		ks := keyScratchPool.Get().(*keyScratch)
		ks.buf = appendAnalogyKey(ks.buf[:0], &refs, req.K)
		body, hit = s.cache.Get(ks.buf, v.epoch)
		keyScratchPool.Put(ks)
	}
	cacheDur := time.Since(cacheStart)
	t.stageCache.ObserveDuration(cacheDur)
	var st ann.SearchStats
	if !hit {
		pv := s.acquireView()
		keys := [3]string{}
		for i, ref := range refs {
			key := storeKey(ref.Table, ref.Column, ref.Text)
			if _, ok := pv.store.ID(key); !ok {
				pv.release()
				writeError(w, http.StatusNotFound, errNotFound,
					fmt.Sprintf("no value %q in %s.%s", ref.Text, ref.Table, ref.Column))
				return
			}
			keys[i] = key
		}
		ms, err := pv.store.AnalogyStats(keys[0], keys[1], keys[2], req.K, &st)
		if err != nil {
			pv.release()
			writeError(w, http.StatusNotFound, errNotFound, err.Error())
			return
		}
		t.stageWalk.Observe(float64(st.WalkNs) / 1e9)
		t.stageRerank.Observe(float64(st.RerankNs) / 1e9)
		t.annHops.Observe(float64(st.Hops))
		t.annNodes.Observe(float64(st.Nodes))
		if st.Reranked > 0 {
			t.annReranked.Observe(float64(st.Reranked))
		}
		body = encodeBody(analogyResponse{
			A: req.A, B: req.B, C: req.C, K: req.K, Matches: toMatches(ms),
		})
		if s.cache != nil {
			if hitBody := cachedVariant(body); hitBody != nil {
				ks := keyScratchPool.Get().(*keyScratch)
				ks.buf = appendAnalogyKey(ks.buf[:0], &refs, req.K)
				s.cache.Put(ks.buf, pv.epoch, hitBody)
				keyScratchPool.Put(ks)
			}
		}
		pv.release()
	}
	encodeStart := time.Now()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	encodeDur := time.Since(encodeStart)
	t.stageEncode.ObserveDuration(encodeDur)
	if total := time.Since(start); t.slow.Slow(total) {
		t.slow.Record(obs.SlowEntry{
			Time: start, Endpoint: "/v1/analogy", K: req.K,
			Cached: hit, TotalNs: total.Nanoseconds(),
			CacheNs: cacheDur.Nanoseconds(),
			WalkNs:  st.WalkNs, RerankNs: st.RerankNs,
			EncodeNs: encodeDur.Nanoseconds(),
			Hops:     st.Hops, Nodes: st.Nodes, Reranked: st.Reranked,
		})
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.readOnly {
		writeError(w, http.StatusForbidden, errReadOnly,
			"this server is a read replica; send writes to the primary")
		return
	}
	s.limitBody(w, r)
	var req struct {
		Table  string  `json:"table"`
		Values []any   `json:"values"` // single-row form
		Rows   [][]any `json:"rows"`   // batched form
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.Table == "" {
		writeError(w, http.StatusBadRequest, errInvalidArgument, "table is required")
		return
	}
	if req.Values != nil && req.Rows != nil {
		writeError(w, http.StatusBadRequest, errInvalidArgument, `use either "values" (one row) or "rows" (a batch), not both`)
		return
	}
	rawRows := req.Rows
	if req.Rows == nil {
		rawRows = [][]any{req.Values}
	}
	if len(rawRows) == 0 {
		writeError(w, http.StatusBadRequest, errInvalidArgument, "empty batch")
		return
	}

	// The schema probe and per-row value conversion run before the write
	// mutex: the table map and column definitions are fixed once the
	// dataset is loaded (the server exposes no DDL, and db.Insert only
	// appends rows), so reading them is safe without any lock and a
	// large batch's O(rows) decoding never blocks another writer. Only
	// the commit + repair + publication below are write-exclusive —
	// and even those exclude writers only, never readers.
	tbl, ok := s.session().DB().Table(req.Table)
	if !ok {
		writeError(w, http.StatusNotFound, errNotFound, fmt.Sprintf("unknown table %q", req.Table))
		return
	}
	numCols := len(tbl.Columns)
	rows := make([][]retro.Value, len(rawRows))
	for ri, raw := range rawRows {
		if len(raw) != numCols {
			writeError(w, http.StatusBadRequest, errInvalidArgument,
				fmt.Sprintf("row %d: table %q has %d columns, got %d values", ri, req.Table, numCols, len(raw)))
			return
		}
		row := make([]retro.Value, len(raw))
		for i, val := range raw {
			rv, err := jsonValue(val)
			if err != nil {
				writeError(w, http.StatusBadRequest, errInvalidArgument, fmt.Sprintf("row %d value %d: %v", ri, i, err))
				return
			}
			row[i] = rv
		}
		rows[ri] = row
	}

	t := s.tel
	t.insertRows.Observe(float64(len(rows)))
	t.insertsTotal.Inc()
	s.writeMu.Lock()
	sess := s.session()
	err := sess.InsertBatch(req.Table, rows)
	committed := len(rows)
	var batch *retro.BatchError
	if errors.As(err, &batch) {
		committed = batch.Committed
	}
	var repair *retro.RepairError
	repairFailed := errors.As(err, &repair)
	// A WAL append failure means the rows are live in memory but have no
	// durable record: the insert must not be acknowledged and the new
	// state must not be published — a crash now would serve values that
	// recovery cannot reproduce.
	var walErr *retro.WALError
	walFailed := errors.As(err, &walErr)
	published := committed > 0 && !repairFailed && !walFailed
	rep := sess.LastRepair()
	if published {
		// Warm the index and publish the successor view. The warm-up and
		// the freeze both run on the live store, invisible to readers:
		// the cost of a write lands on this write, never on a query.
		s.publishLocked()
	}
	numValues := s.currentView().numValues
	s.writeMu.Unlock()
	if published {
		t.observeRepair(rep)
	}
	if repairFailed {
		t.repairFailures.Inc()
	}
	if t.noteStale(sess.Stale()) {
		t.log.Warn("session marked stale after failed write",
			"table", req.Table, "rows", len(rows), "error", err)
	}
	if err != nil {
		t.insertErrors.Inc()
	}
	if published && s.cache != nil {
		// Entries stamped with the old epoch are already unservable; the
		// purge just releases their memory promptly.
		s.cache.Purge()
	}

	if err != nil {
		if walFailed {
			// Rows reached memory but not the log: the write is NOT durable
			// and is not acknowledged. The session is stale and /readyz
			// fails until the operator restores the log (typically by
			// restarting onto a healthy disk); the old view keeps serving.
			writeError(w, http.StatusInternalServerError, errWALFailed, err.Error())
			return
		}
		if repairFailed {
			// The rows ARE committed — a 400 would invite a retry that
			// can only hit a duplicate key. Signal a server-side failure.
			// The session is marked stale (see /v1/stats) and the old
			// view stays published: queries keep serving the last good
			// vectors. Deliberately NOT resolved inline here: reads keep
			// flowing until the NEXT insert, which pays the full re-solve
			// once, instead of this (and every) failing request stalling
			// the write path for a retrain.
			writeError(w, http.StatusInternalServerError, errRepairFailed, err.Error())
			return
		}
		if batch != nil && batch.Committed > 0 {
			// Partial success: report how far the batch got.
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error":     apiError{Code: errPartialCommit, Message: batch.Error()},
				"committed": batch.Committed,
			})
			return
		}
		writeError(w, http.StatusBadRequest, errInvalidArgument, err.Error())
		return
	}

	writeJSON(w, http.StatusOK, map[string]any{
		"inserted": true, "rows": len(rows), "table": req.Table, "num_values": numValues,
	})
}

// ApplyReplicated commits one replicated WAL batch through the same
// write path an HTTP insert takes — commit, incremental repair, view
// publication, cache purge — bypassing only the HTTP surface (a replica
// rejects client writes; the stream is its writer). A RepairError is
// returned but leaves the batch committed and durably logged, same as
// the local contract: the session is stale until the next successful
// batch full-resolves.
func (s *Server) ApplyReplicated(table string, rows [][]retro.Value) error {
	t := s.tel
	t.insertRows.Observe(float64(len(rows)))
	t.insertsTotal.Inc()
	s.writeMu.Lock()
	sess := s.session()
	err := sess.InsertBatch(table, rows)
	rep := sess.LastRepair()
	if err == nil {
		s.publishLocked()
	}
	s.writeMu.Unlock()
	if err == nil {
		t.observeRepair(rep)
		if s.cache != nil {
			s.cache.Purge()
		}
	} else {
		t.insertErrors.Inc()
		var repair *retro.RepairError
		if errors.As(err, &repair) {
			t.repairFailures.Inc()
		}
	}
	if t.noteStale(sess.Stale()) {
		t.log.Warn("session marked stale after replicated write",
			"table", table, "rows", len(rows), "error", err)
	}
	return err
}

// jsonValue maps a decoded JSON value onto a database value; reldb's
// Coerce handles per-column typing at insert.
func jsonValue(v any) (retro.Value, error) {
	switch x := v.(type) {
	case nil:
		return retro.Null, nil
	case string:
		return retro.Text(x), nil
	case float64:
		if x == float64(int64(x)) {
			return retro.Int(int64(x)), nil
		}
		return retro.Float(x), nil
	case bool:
		if x {
			return retro.Int(1), nil
		}
		return retro.Int(0), nil
	default:
		return retro.Null, fmt.Errorf("unsupported JSON value %T (use string, number, bool or null)", v)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Everything here reads either the immutable published view or
	// dedicated atomics — no lock is taken and no insert is stalled.
	v := s.currentView()
	store := v.store
	threshold := store.ANNThreshold()
	idx := store.ANNIndex()
	annStats := map[string]any{"enabled": threshold > 0, "threshold": threshold, "built": idx != nil}
	// Quantization mode and re-rank depth: operators watching a rollout
	// need to see which distance kernel queries are actually running on.
	quantMode, quantRerank := store.Quantization()
	annStats["quantization"] = quantMode
	if quantMode != embed.QuantOff {
		annStats["rerank"] = quantRerank
	}
	if idx != nil {
		p := idx.Params()
		annStats["size"] = idx.Len()
		// Updates re-link in place, so this stays 0 unless rows were zeroed.
		annStats["tombstones"] = idx.Deleted()
		annStats["max_level"] = idx.MaxLevel()
		annStats["m"] = p.M
		annStats["ef_construction"] = p.EfConstruction
		annStats["ef_search"] = p.EfSearch
		annStats["quantized"] = idx.Quantized()
	}

	var cacheStats map[string]any
	if s.cache != nil {
		length, capacity, shards, hits, misses := s.cache.Stats()
		cacheStats = map[string]any{
			"entries": length, "capacity": capacity, "shards": shards,
			"hits": hits, "misses": misses,
		}
	}

	endpoints := map[string]any{}
	for _, st := range s.metrics.snapshot() {
		count := st.Count.Load()
		total := time.Duration(st.TotalNs.Load())
		ep := map[string]any{
			"count":    count,
			"errors":   st.Errors.Load(),
			"total_ms": float64(total) / float64(time.Millisecond),
		}
		if count > 0 {
			ep["avg_ms"] = float64(total) / float64(count) / float64(time.Millisecond)
		}
		endpoints[st.name] = ep
	}

	// Storage engine: durability counters for operators watching WAL
	// growth (checkpoint-lag) and checkpoint/compaction cadence. Absent
	// when the server runs without a data directory.
	var storageStats map[string]any
	if engine := s.Engine(); engine != nil {
		st := engine.Stats()
		storageStats = map[string]any{
			"dir":              st.Dir,
			"epoch":            st.Epoch,
			"segments":         st.Segments,
			"pending_rows":     st.PendingRows,
			"checkpoints":      st.Checkpoints,
			"compactions":      st.Compactions,
			"replayed_records": st.ReplayedRecords,
			"replayed_rows":    st.ReplayedRows,
			"wal_truncated":    st.WALTruncated,
			"wal": map[string]any{
				"path":     st.WAL.Path,
				"base_seq": st.WAL.BaseSeq,
				"last_seq": st.WAL.LastSeq,
				"records":  st.WAL.Records,
				"bytes":    st.WAL.Bytes,
				"appends":  st.WAL.Appends,
				"syncs":    st.WAL.Syncs,
			},
		}
		if !st.LastCheckpoint.Skipped && st.LastCheckpoint.Epoch > 0 {
			storageStats["last_checkpoint"] = map[string]any{
				"epoch":     st.LastCheckpoint.Epoch,
				"compacted": st.LastCheckpoint.Compacted,
				"rows":      st.LastCheckpoint.Rows,
				"vectors":   st.LastCheckpoint.Vectors,
				"bytes":     st.LastCheckpoint.Bytes,
				"ms":        float64(st.LastCheckpoint.Duration) / float64(time.Millisecond),
			}
		}
	}

	// Replication: a replica reports its tailing state and lag; any
	// storage-backed server reports the traffic it serves to followers.
	var replStats map[string]any
	if s.replica != nil {
		rs := s.replica()
		replStats = map[string]any{
			"role":           "replica",
			"state":          rs.State,
			"primary":        rs.Primary,
			"connected":      rs.Connected,
			"applied_seq":    rs.AppliedSeq,
			"primary_seq":    rs.PrimarySeq,
			"lag_seqs":       rs.LagSeqs,
			"lag_seconds":    rs.LagSeconds,
			"resyncs":        rs.Resyncs,
			"caught_up_once": rs.CaughtUpOnce,
			"ready":          rs.Ready,
		}
		if rs.Reason != "" {
			replStats["reason"] = rs.Reason
		}
		if rs.LastError != "" {
			replStats["last_error"] = rs.LastError
		}
	} else if s.replPrimary != nil {
		ps := s.replPrimary.Stats()
		replStats = map[string]any{
			"role":            "primary",
			"stream_requests": ps.StreamRequests,
			"stream_records":  ps.StreamRecords,
			"file_requests":   ps.FileRequests,
			"resyncs_served":  ps.Resyncs,
		}
	}

	origin := map[string]any{"source": s.origin.Source}
	if s.origin.Source == "snapshot" {
		origin["snapshot_path"] = s.origin.Path
		origin["format_version"] = s.origin.FormatVersion
		origin["fingerprint"] = fmt.Sprintf("%016x", s.origin.Fingerprint)
		if !s.origin.Created.IsZero() {
			origin["snapshot_created"] = s.origin.Created.UTC().Format(time.RFC3339)
			origin["snapshot_age_seconds"] = time.Since(s.origin.Created).Seconds()
		}
	}

	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(s.started).Seconds(),
		"num_values":     v.numValues,
		"dim":            v.dim,
		// stale means a repair failed after a commit: queries serve the
		// last good vectors and the next write runs a full re-solve.
		// repair_seconds are running totals over the repairs counted (the
		// sums of the retro_repair_*duration_seconds histograms; solve and
		// index cover incremental repairs only), so two reads give the mean
		// repair and its solve/index split over any window.
		"session": map[string]any{
			"stale":   s.session().Stale(),
			"repairs": s.tel.repairDur.Count(),
			"repair_seconds": map[string]any{
				"total": s.tel.repairDur.Sum(),
				"solve": s.tel.repairSolve.Sum(),
				"index": s.tel.repairIndex.Sum(),
			},
		},
		"ann": annStats,
		// Resident payload breakdown of the serving store — what the
		// precision mode (f32 vs f64) actually moves. Component bytes
		// mirror the retro_store_bytes gauges.
		"memory": store.MemoryStats(),
		"cache":  cacheStats,
		// View lifecycle: epoch of the published view, how many times a
		// write swapped in a successor, how many retired views have fully
		// drained their readers, and how many are still draining.
		"views": map[string]any{
			"epoch":    v.epoch,
			"swaps":    s.swaps.Load(),
			"drained":  s.drained.Load(),
			"draining": s.retiredWaiting.Load(),
		},
		"endpoints":   endpoints,
		"origin":      origin,
		"storage":     storageStats,
		"replication": replStats,
	})
}
