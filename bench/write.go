package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// insertBody encodes a /v1/insert request: the single-row form for one
// row, the batched form otherwise.
func insertBody(rows [][]any) []byte {
	req := map[string]any{"table": "movies"}
	if len(rows) == 1 {
		req["values"] = rows[0]
	} else {
		req["rows"] = rows
	}
	body, _ := json.Marshal(req)
	return body
}

// titleKey is the key an inserted movie row becomes queryable under.
func titleKey(row []any) key {
	return key{Table: "movies", Column: "title", Text: row[1].(string)}
}

// storageArgs are the flags of a WAL-backed retro-serve: the same model
// configuration the read workloads train in-process (serveConfig), every
// insert fsynced before its ack, and checkpoints often enough that a
// phase sees several.
func (h *harness) storageArgs(dataset, store string) []string {
	return []string{
		"-data", dataset, "-data-dir", store,
		"-checkpoint-interval", "2s", "-wal-sync-every", "1",
		"-precision", "f32", "-quant", "sq8",
		"-cache", fmt.Sprint(h.sz.cache), "-ann-threshold", fmt.Sprint(h.sz.annThreshold),
	}
}

// writeEnv is a WAL-backed retro-serve with a held-out insert stream.
type writeEnv struct {
	srv   *child
	args  []string // the flags it was booted with, for the respawn
	store string
	world *world
	urls  []string // read traffic beside the inserts
}

// setupWrite generates the world and boots retro-serve on an empty
// -data-dir: the server trains, writes its base snapshot and builds the
// index before it reports ready.
func (h *harness) setupWrite(rep, tail int) (*writeEnv, error) {
	dir := filepath.Join(h.work, fmt.Sprintf("write-data-%d", rep))
	w, err := genWorld(dir, h.seed, h.sz.dim, h.sz.serveMovies, tail)
	if err != nil {
		return nil, err
	}
	if len(w.tail) < tail {
		return nil, fmt.Errorf("generated %d held-out rows, need %d", len(w.tail), tail)
	}
	env := &writeEnv{world: w, store: filepath.Join(h.work, fmt.Sprintf("store-%d", rep))}
	env.args = h.storageArgs(dir, env.store)
	if env.srv, err = startServer(h.bin, filepath.Join(h.work, "serve.log"), h.client, env.args...); err != nil {
		return nil, err
	}
	// Read traffic addresses the exported movie titles and overviews:
	// values the generator knows without asking the server.
	env.urls = make([]string, len(w.movieKeys))
	for i, k := range w.movieKeys {
		env.urls[i] = env.srv.base + k.neighborsPath(10)
	}
	return env, nil
}

// runWrite drives write_mixed: single-row inserts beside reads (phase A),
// closed-loop bulk batches (phase B), then kill -9, respawn on the same
// directory and proof that no acknowledged row was lost (phase C).
func (h *harness) runWrite(res *result) error {
	if err := h.needServer(); err != nil {
		return err
	}
	lenA := time.Duration(0.70 * h.seconds * float64(time.Second))
	singles := h.sz.singleRows
	tail := singles + h.sz.bulkBatches*h.sz.bulkRows

	var setups []float64
	var env *writeEnv
	for rep := 0; rep < h.sz.setups; rep++ {
		if env != nil {
			env.srv.kill()
		}
		start := time.Now()
		var err error
		if env, err = h.setupWrite(rep, tail); err != nil {
			return err
		}
		seq := sequence(uniformDraw(len(env.urls), h.seed*1000), int(h.sz.mixReadRate*h.sz.warmup.Seconds()))
		openLoop("warmup", h.sz.mixReadRate, h.sz.warmup, 1, func(i int) bool { return h.getOK(env.urls[seq[i]]) })
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { env.srv.kill() }()
	pid := env.srv.pid()
	rows := env.world.tail
	var acked []key

	// Phase A: one client inserting row after row, each insert sent when
	// the previous one was acknowledged, beside open-loop uniform reads on
	// a second connection. The writer is a closed loop because one insert
	// costs hundreds of milliseconds of repair: at any fixed rate the
	// server sustains, a phase would hold too few inserts to take a median
	// of, and a little above it the queue, not the insert, is measured.
	seq := sequence(uniformDraw(len(env.urls), h.seed*1000+1), int(h.sz.mixReadRate*lenA.Seconds()))
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	var inserts, reads phaseResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		inserts = closedLoop("insert_single_closed_loop", lenA, 1, func(_, i int) (bool, bool) {
			if i >= singles {
				return false, false
			}
			if !h.postOK(env.srv.base+"/v1/insert", insertBody(rows[i:i+1]), nil) {
				return false, true
			}
			acked = append(acked, titleKey(rows[i]))
			return true, true
		})
	}()
	go func() {
		defer wg.Done()
		reads = openLoop("get_beside_inserts", h.sz.mixReadRate, lenA, 1, func(i int) bool { return h.getOK(env.urls[seq[i]]) })
	}()
	wg.Wait()
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	res.phase(inserts)
	res.phase(reads)
	insLat := latenciesMs(inserts.samples)
	if len(insLat) == 0 {
		return fmt.Errorf("write_mixed: no insert was acknowledged")
	}
	insP50 := res.sampled("insert_p50_ms", "ms", insLat).Median
	// One repair costs hundreds of milliseconds, so a phase holds tens of
	// inserts, not hundreds, and usually no percentile has ten samples
	// beyond it: the upper quartile then stands in for the tail.
	tailP := highestSupported(len(insLat))
	if tailP <= 50 {
		tailP = 75
	}
	res.value("insert_tail_ms", "ms", percentile(insLat, tailP))
	res.value("insert_tail_percentile", "%", tailP)
	res.sampled("read_p50_ms", "ms", latenciesMs(reads.samples))
	res.value("read_p99_ms", "ms", windowedPercentile(reads.samples, reads.length, 10, 99))
	cpuMs := 1000 * (cpu1 - cpu0) / float64(inserts.succeeded())
	res.value("insert_cpu_ms", "ms", cpuMs)

	// Phase B: closed-loop bulk batches on one connection. The count is
	// fixed, not the time: now and then a batch pays for an index rebuild
	// worth several ordinary batches, and the median batch must not depend
	// on whether one did.
	bulk := phaseResult{Name: "insert_bulk_closed_loop"}
	var batchRates []float64
	bulkStart := time.Now()
	for b := 0; b < h.sz.bulkBatches; b++ {
		batch := rows[singles+b*h.sz.bulkRows : singles+(b+1)*h.sz.bulkRows]
		start := time.Now()
		bulk.Attempted++
		if !h.postOK(env.srv.base+"/v1/insert", insertBody(batch), nil) {
			bulk.Failed++
			continue
		}
		batchRates = append(batchRates, float64(len(batch))/time.Since(start).Seconds())
		for _, row := range batch {
			acked = append(acked, titleKey(row))
		}
	}
	bulk.Wall = time.Since(bulkStart)
	bulk.WallS = bulk.Wall.Seconds()
	res.phase(bulk)
	if len(batchRates) == 0 {
		return fmt.Errorf("write_mixed: no bulk batch was acknowledged")
	}
	bulkRate := res.sampled("bulk_rows_per_s", "1/s", batchRates).Median

	// Phase C: crash and recover.
	before, err := env.srv.stats()
	if err != nil {
		return err
	}
	rss, err := rssPeakMB(pid)
	if err != nil {
		return err
	}
	res.value("rss_peak_mb", "MB", rss)
	res.value("checkpoints", "count", digFloat(before, "storage", "checkpoints"))
	res.value("disk_bytes", "B", float64(dirBytes(env.store)))
	// Three kill -9 / respawn cycles, because one recovery is one sample.
	// The first finds the log tail the workload left; the checkpoint
	// ticker may have folded it before the later ones, which changes
	// little: rebuilding the index is nine tenths of a recovery.
	var recovers []float64
	var after map[string]any // /v1/stats of the first recovery
	for cycle := 0; cycle < h.sz.recoveries; cycle++ {
		env.srv.kill()
		killed := time.Now()
		srv, err := startServer(h.bin, filepath.Join(h.work, "serve.log"), h.client, env.args...)
		if err != nil {
			return fmt.Errorf("write_mixed: recovery: %w", err)
		}
		recovers = append(recovers, time.Since(killed).Seconds())
		env.srv = srv
		if cycle == 0 {
			if after, err = env.srv.stats(); err != nil {
				return err
			}
		}
	}
	recoverS := res.sampled("recover_s", "s", recovers).Median

	verify := phaseResult{Name: "verify_acked_rows"}
	lost := 0
	for _, k := range acked {
		verify.Attempted++
		if !h.getOK(env.srv.base + k.neighborsPath(1)) {
			verify.Failed++
			lost++
		}
	}
	res.phase(verify)
	res.check("lost_rows=0", lost == 0, "%d of %d acknowledged rows missing after kill -9", lost, len(acked))
	pending, replayed := digFloat(before, "storage", "pending_rows"), digFloat(after, "storage", "replayed_rows")
	// <= and not ==: the checkpoint ticker may fold the tail between the
	// stats read and the kill.
	res.check("replayed<=pending", replayed <= pending,
		"%d rows replayed from the WAL, %d were pending at the kill, %d checkpointed", int(replayed), int(pending), len(acked)-int(pending))
	res.check("values_survive", digFloat(before, "num_values") == digFloat(after, "num_values"),
		"%d values before the kill, %d after recovery", int(digFloat(before, "num_values")), int(digFloat(after, "num_values")))
	stale, _ := dig(after, "session", "stale").(bool)
	res.check("session.stale=false", !stale, "stale=%v", stale)

	setup := res.sampled("setup_s", "s", setups)
	res.value("build_s", "s", h.buildS)
	res.Metrics = map[string]float64{
		"setup_s":        setup.Median,
		"op_p50_ms":      insP50,
		"op_cpu_ms":      cpuMs,
		"capacity_ops_s": bulkRate,
		"rss_peak_mb":    rss,
		"restart_s":      recoverS,
	}
	return nil
}
