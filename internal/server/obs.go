// Telemetry wiring: the server's obs.Registry, the per-stage tracing
// instruments the read path records into, the slow-query log, and the
// admin handler that exposes all of it.
//
// Everything is registered once, in newTelemetry, before the first
// request; after that the request path touches only pre-registered
// atomic instruments — no lock, no allocation, no map lookup. Gauges
// whose source of truth already lives in server atomics (view epoch,
// cache occupancy, staleness) are scrape-time closures, so the hot path
// pays nothing to keep them fresh.
package server

import (
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/obs"
)

// telemetry bundles the server's metric handles. Fields are plain
// pointers into the registry; handlers use them directly.
type telemetry struct {
	reg  *obs.Registry
	slow *obs.SlowLog
	log  *slog.Logger

	// Read-path stage latencies (seconds), one series per stage.
	stageCache  *obs.Histogram
	stageWalk   *obs.Histogram
	stageRerank *obs.Histogram
	stageEncode *obs.Histogram

	// ANN traversal effort per uncached query.
	annHops     *obs.Histogram
	annNodes    *obs.Histogram
	annReranked *obs.Histogram

	// Write path and lifecycle.
	insertRows       *obs.Histogram
	insertsTotal     *obs.Counter
	insertErrors     *obs.Counter
	panics           *obs.Counter
	repairDur        *obs.Histogram
	repairSolve      *obs.Histogram // delta repairs only, see observeRepair
	repairIndex      *obs.Histogram
	repairNodes      *obs.Histogram
	repairRelinked   *obs.Histogram
	repairFailures   *obs.Counter
	staleTransitions *obs.Counter
	publishDur       *obs.Histogram
	snapshotSave     *obs.Histogram
	checkpointDur    *obs.Histogram // nil without a storage engine

	// staleSeen is the edge detector behind staleTransitions: staleness
	// is a flag the session flips internally (failed repair, operator
	// MarkStale), so every observation point reports the current state
	// through noteStale and the flip is counted exactly once.
	staleSeen atomic.Bool
}

// noteStale records an observation of the session's staleness and
// reports whether this observation was the false→true transition.
func (t *telemetry) noteStale(stale bool) bool {
	if stale {
		if t.staleSeen.CompareAndSwap(false, true) {
			t.staleTransitions.Inc()
			return true
		}
		return false
	}
	t.staleSeen.Store(false)
	return false
}

// observeRepair records one successful repair. The stage split exists
// for incremental repairs only: a full re-solve rebuilds the store, so
// there is no write-back stage to tell apart.
func (t *telemetry) observeRepair(rep retro.RepairStats) {
	t.repairDur.ObserveDuration(rep.Duration)
	t.repairNodes.Observe(float64(rep.Touched))
	t.repairRelinked.Observe(float64(rep.Relinked))
	if !rep.Full {
		t.repairSolve.ObserveDuration(rep.Solve)
		t.repairIndex.ObserveDuration(rep.Index)
	}
}

// newTelemetry registers every server metric. Called once from New,
// before the first view is published, so no request can race
// registration.
func newTelemetry(s *Server, cfg Config) *telemetry {
	reg := obs.NewRegistry()
	capacity := cfg.SlowLogSize
	if capacity == 0 {
		capacity = 128
	}
	t := &telemetry{
		reg:  reg,
		slow: obs.NewSlowLog(capacity, cfg.SlowQueryThreshold),
		log:  cfg.Logger,
	}
	if t.log == nil {
		t.log = slog.Default()
	}

	stage := func(name string) *obs.Histogram {
		return reg.Histogram("retro_query_stage_duration_seconds",
			"Read-path latency per stage, in seconds.",
			`stage="`+name+`"`, obs.DurationBuckets())
	}
	t.stageCache = stage("cache_lookup")
	t.stageWalk = stage("graph_walk")
	t.stageRerank = stage("rerank")
	t.stageEncode = stage("encode")

	t.annHops = reg.Histogram("retro_ann_hops",
		"Candidate expansions (greedy descent steps plus beam pops) per ANN query.",
		"", obs.CountBuckets())
	t.annNodes = reg.Histogram("retro_ann_nodes_visited",
		"Distinct nodes scored by the layer-0 beam per ANN query.",
		"", obs.CountBuckets())
	t.annReranked = reg.Histogram("retro_ann_reranked",
		"Quantized candidates re-scored with exact distances per ANN query.",
		"", obs.CountBuckets())

	t.insertRows = reg.Histogram("retro_insert_rows",
		"Rows per insert batch.", "", obs.CountBuckets())
	t.insertsTotal = reg.Counter("retro_inserts_total",
		"Insert requests that reached the commit path.", "")
	t.insertErrors = reg.Counter("retro_insert_errors_total",
		"Insert requests that returned an error.", "")
	t.panics = reg.Counter("retro_http_panics_total",
		"Handler panics converted into the structured internal error.", "")
	t.repairDur = reg.Histogram("retro_repair_duration_seconds",
		"Embedding repair wall time per successful insert.", "", obs.DurationBuckets())
	repairStage := func(name string) *obs.Histogram {
		return reg.Histogram("retro_repair_stage_duration_seconds",
			"Incremental repair wall time per stage: solve (delta extraction, problem growth, re-solve) and index (store, norm cache and ANN write-back).",
			`stage="`+name+`"`, obs.DurationBuckets())
	}
	t.repairSolve = repairStage("solve")
	t.repairIndex = repairStage("index")
	t.repairNodes = reg.Histogram("retro_repair_nodes",
		"Nodes re-solved per embedding repair.", "", obs.CountBuckets())
	t.repairRelinked = reg.Histogram("retro_repair_relinked_nodes",
		"Re-solved nodes whose ANN links were recomputed per embedding repair.", "", obs.CountBuckets())
	t.repairFailures = reg.Counter("retro_repair_failures_total",
		"Repairs that failed after rows were committed, leaving the session stale.", "")
	t.staleTransitions = reg.Counter("retro_stale_transitions_total",
		"Times the session entered the stale state.", "")
	t.publishDur = reg.Histogram("retro_view_publish_duration_seconds",
		"Time to warm the index, freeze the store and publish a serving view.",
		"", obs.DurationBuckets())
	t.snapshotSave = reg.Histogram("retro_snapshot_save_duration_seconds",
		"Time to serialise a session snapshot.", "", obs.DurationBuckets())

	// Scrape-time gauges over state the server already maintains.
	reg.GaugeFunc("retro_view_epoch",
		"Epoch of the published serving view (-1 before the first publish).", "",
		func() float64 {
			if v := s.view.Load(); v != nil {
				return float64(v.epoch)
			}
			return -1
		})
	reg.GaugeFunc("retro_num_values",
		"Text values in the published serving view.", "",
		func() float64 {
			if v := s.view.Load(); v != nil {
				return float64(v.numValues)
			}
			return 0
		})
	reg.GaugeFunc("retro_dim",
		"Embedding dimensionality of the published serving view.", "",
		func() float64 {
			if v := s.view.Load(); v != nil {
				return float64(v.dim)
			}
			return 0
		})
	reg.CounterFunc("retro_view_swaps_total",
		"Serving-view publications that replaced an older view.", "",
		func() float64 { return float64(s.swaps.Load()) })
	reg.CounterFunc("retro_views_drained_total",
		"Retired serving views whose in-flight readers have fully drained.", "",
		func() float64 { return float64(s.drained.Load()) })
	reg.GaugeFunc("retro_views_draining",
		"Retired serving views still waiting for readers to drain.", "",
		func() float64 { return float64(s.retiredWaiting.Load()) })
	reg.GaugeFunc("retro_session_stale",
		"1 when a failed repair left the model behind the database, else 0.", "",
		func() float64 {
			stale := s.session().Stale()
			t.noteStale(stale)
			if stale {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("retro_uptime_seconds",
		"Seconds since the server was constructed.", "",
		func() float64 { return time.Since(s.started).Seconds() })

	// Resident store payload by component — the bytes the precision mode
	// (f32 vs f64) moves. One series per component; each closure reads
	// the published view at scrape time (MemoryStats is a handful of
	// length reads, cheap enough to evaluate per series).
	storeBytes := func(pick func(embed.MemoryStats) int64) func() float64 {
		return func() float64 {
			v := s.view.Load()
			if v == nil {
				return 0
			}
			return float64(pick(v.store.MemoryStats()))
		}
	}
	reg.GaugeFunc("retro_store_bytes",
		"Resident store payload bytes by component.", `component="matrix"`,
		storeBytes(func(m embed.MemoryStats) int64 { return m.MatrixBytes }))
	reg.GaugeFunc("retro_store_bytes", "", `component="norms"`,
		storeBytes(func(m embed.MemoryStats) int64 { return m.NormBytes }))
	reg.GaugeFunc("retro_store_bytes", "", `component="graph_vectors"`,
		storeBytes(func(m embed.MemoryStats) int64 { return m.GraphVecBytes }))
	reg.GaugeFunc("retro_store_bytes", "", `component="codes"`,
		storeBytes(func(m embed.MemoryStats) int64 { return m.CodeBytes }))
	reg.GaugeFunc("retro_store_bytes", "", `component="adjacency"`,
		storeBytes(func(m embed.MemoryStats) int64 { return m.AdjacencyBytes }))
	reg.GaugeFunc("retro_store_bytes", "", `component="total"`,
		storeBytes(func(m embed.MemoryStats) int64 { return m.TotalBytes }))

	if s.cache != nil {
		reg.CounterFunc("retro_cache_hits_total",
			"Query-cache hits.", "",
			func() float64 { hits, _ := s.cache.Counts(); return float64(hits) })
		reg.CounterFunc("retro_cache_misses_total",
			"Query-cache misses.", "",
			func() float64 { _, misses := s.cache.Counts(); return float64(misses) })
		reg.GaugeFunc("retro_cache_entries",
			"Entries resident in the query cache.", "",
			func() float64 { length, _, _, _, _ := s.cache.Stats(); return float64(length) })
		reg.GaugeFunc("retro_cache_capacity",
			"Query-cache capacity in entries.", "",
			func() float64 { _, capacity, _, _, _ := s.cache.Stats(); return float64(capacity) })
	}
	reg.CounterFunc("retro_slow_queries_total",
		"Queries recorded by the slow-query log.", "",
		func() float64 { return float64(t.slow.Recorded()) })

	if cfg.Engine != nil {
		// Storage-engine durability counters. The engine keeps these under
		// its own mutex; scrape-time closures read a consistent snapshot
		// without the request path paying anything. The closures resolve
		// the engine per scrape: a follower re-sync swaps it, and a scrape
		// racing the swap must read the live one, not a closed handle.
		engStats := func() retro.StorageStats {
			if e := s.Engine(); e != nil {
				return e.Stats()
			}
			return retro.StorageStats{}
		}
		reg.CounterFunc("retro_wal_appends_total",
			"Record batches appended to the write-ahead log.", "",
			func() float64 { return float64(engStats().WAL.Appends) })
		reg.CounterFunc("retro_wal_syncs_total",
			"fsync calls issued by the write-ahead log.", "",
			func() float64 { return float64(engStats().WAL.Syncs) })
		reg.CounterFunc("retro_wal_sync_seconds_total",
			"Cumulative wall time spent in WAL fsync.", "",
			func() float64 { return float64(engStats().WAL.SyncNanos) / 1e9 })
		reg.GaugeFunc("retro_wal_bytes",
			"Size of the active write-ahead log in bytes.", "",
			func() float64 { return float64(engStats().WAL.Bytes) })
		reg.GaugeFunc("retro_wal_last_seq",
			"Sequence number of the last durable WAL record.", "",
			func() float64 { return float64(engStats().WAL.LastSeq) })
		reg.GaugeFunc("retro_storage_epoch",
			"Checkpoint epoch of the storage engine.", "",
			func() float64 { return float64(engStats().Epoch) })
		reg.GaugeFunc("retro_storage_segments",
			"Delta segments in the manifest chain.", "",
			func() float64 { return float64(engStats().Segments) })
		reg.GaugeFunc("retro_storage_pending_rows",
			"Rows logged since the last checkpoint (replayed on crash).", "",
			func() float64 { return float64(engStats().PendingRows) })
		reg.CounterFunc("retro_checkpoints_total",
			"Checkpoints taken by this engine handle.", "",
			func() float64 { return float64(engStats().Checkpoints) })
		reg.CounterFunc("retro_storage_compactions_total",
			"Checkpoints that compacted the chain into a fresh base.", "",
			func() float64 { return float64(engStats().Compactions) })
		t.checkpointDur = reg.Histogram("retro_checkpoint_duration_seconds",
			"Wall time per non-skipped checkpoint.", "", obs.DurationBuckets())
	}

	if cfg.Replica != nil {
		// Replication lag, the follower's headline health signal: how far
		// behind the primary this replica is serving, in records and in
		// wall time, plus how often it had to throw its state away.
		replica := cfg.Replica
		reg.GaugeFunc("retro_replica_lag_seconds",
			"Seconds since this replica was last caught up to the primary (0 while caught up).", "",
			func() float64 { return replica().LagSeconds })
		reg.GaugeFunc("retro_replica_lag_seqs",
			"WAL records the replica has not yet applied.", "",
			func() float64 { return float64(replica().LagSeqs) })
		reg.CounterFunc("retro_replica_resyncs_total",
			"Full re-syncs this replica has performed (resume point compacted away or stream diverged).", "",
			func() float64 { return float64(replica().Resyncs) })
		reg.GaugeFunc("retro_replica_connected",
			"1 while the replica's WAL stream to the primary is live, else 0.", "",
			func() float64 {
				if replica().Connected {
					return 1
				}
				return 0
			})
	}

	obs.RegisterRuntime(reg)
	version := cfg.Version
	if version == "" {
		version = "dev"
	}
	obs.RegisterBuildInfo(reg, version)
	return t
}

// Metrics exposes the server's registry (for embedding /metrics into an
// existing admin mux).
func (s *Server) Metrics() *obs.Registry { return s.tel.reg }

// SlowLog exposes the slow-query log.
func (s *Server) SlowLog() *obs.SlowLog { return s.tel.slow }

// AdminHandler returns the operator surface, meant for a separate admin
// listener (alongside pprof), never the serving address: /metrics in
// Prometheus text format, /debug/slowlog, and the health and readiness
// probes (also available on the serving mux).
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.tel.reg.Handler())
	mux.Handle("/debug/slowlog", s.tel.slow)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return s.recoverPanics(mux)
}

// handleReadyz is the readiness probe: liveness (/healthz) says the
// process is up, readiness says this replica should receive traffic. A
// server with no published view or a stale session reports 503 so a
// load balancer can drain it while /healthz keeps the process alive. A
// read replica additionally gates on its replication lag policy (see
// repl.Follower.Status): never-synced or lagging past the configured
// threshold means not ready, while a caught-up replica that merely lost
// its primary stays ready — serving reads through the primary's failure
// is the point.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if v := s.view.Load(); v == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "no serving view published"})
		return
	}
	stale := s.session().Stale()
	s.tel.noteStale(stale)
	if stale {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "session stale: model lags the database until the next successful write"})
		return
	}
	if s.replica != nil {
		rs := s.replica()
		body := map[string]any{
			"ready":       rs.Ready,
			"replication": map[string]any{"state": rs.State, "lag_seconds": rs.LagSeconds, "lag_seqs": rs.LagSeqs, "connected": rs.Connected},
		}
		if !rs.Ready {
			body["reason"] = rs.Reason
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		writeJSON(w, http.StatusOK, body)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}
