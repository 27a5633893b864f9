package main

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/ann"
	"github.com/retrodb/retro/internal/core"
	"github.com/retrodb/retro/internal/cpu"
	"github.com/retrodb/retro/internal/dataset"
	"github.com/retrodb/retro/internal/deepwalk"
	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/quant"
	"github.com/retrodb/retro/internal/reldb"
	"github.com/retrodb/retro/internal/server"
	"github.com/retrodb/retro/internal/tokenize"
	"github.com/retrodb/retro/internal/vec"
)

// The traced run is a sweep over every layer at the workload's traffic
// shape. No span lives inside the program: the benchmark wraps its own
// spans around each layer's public functions (source T), takes deltas of
// the /metrics and /v1/stats a real retro-serve child already exposes
// (source S), and counts (source C). Every workload runs every stage, so
// every per-layer metric is a measurement on every workload; the
// workload decides the key distribution of the read stages (Zipf for
// read_hot, uniform otherwise), whether inserts run beside the reads
// (write_mixed) or after them, the fixed read rate, and the size of the
// trained world (the training world for train, the served one otherwise).

// traced carries one sweep's state from stage to stage.
type traced struct {
	h   *harness
	res *result
	tr  *tracer
	m   map[string]float64

	world  *world // the served world, with the held-out insert stream
	sess   *retro.Session
	frozen *embed.Store // the published view the read stages query
	keys   []key        // every value of the served model, seed-shuffled
	seq    []int        // the workload's key sequence over keys
	hot    bool
	rate   float64

	servedLoadS  float64 // dataset.LoadDir of the served world
	recoverWarmS float64 // index build on the store recovered in-process
}

// ms and us convert a duration for a metric.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func (h *harness) runTraced(res *result) error {
	if err := h.needServer(); err != nil {
		return err
	}
	t := &traced{h: h, res: res, tr: newTracer(), m: res.Metrics, hot: res.Workload == "read_hot"}
	switch res.Workload {
	case "read_miss":
		t.rate = h.sz.getRate
	case "read_hot":
		t.rate = h.sz.hotRate
	default:
		t.rate = h.sz.mixReadRate
	}
	t.m["loadgen.build_s"] = h.buildS
	stages := []struct {
		name string
		run  func(root int) error
	}{
		{"train", t.trainStage}, {"serve_setup", t.serveSetupStage}, {"kernels", t.kernelStage},
		{"read_path", t.readStage}, {"write_path", t.writeStage}, {"server", t.serverStage},
	}
	for _, st := range stages {
		var err error
		t.tr.doID(0, st.name, func(root int) { err = st.run(root) })
		if err != nil {
			return fmt.Errorf("traced %s, stage %s: %w", res.Workload, st.name, err)
		}
	}
	t.overheadStage()
	for _, d := range perLayer {
		if v, ok := t.m[d.Name]; ok {
			res.value(d.Name, d.Unit, v)
		}
	}
	spans := t.tr.snapshot()
	res.Spans = summarizeSpans(spans)
	return writeTrace(filepath.Join(h.outDir, "trace-"+res.Workload+".json"), spans, res.Spans)
}

// trainStage times the training pipeline call by call, then Retrofit as
// a whole, so that Retrofit's time can be accounted for by its layers.
func (t *traced) trainStage(root int) error {
	h, tr := t.h, t.tr
	began := time.Now()
	var err error
	serveDir := filepath.Join(h.work, "trace-serve-data")
	if t.world, err = genWorld(serveDir, h.seed, h.sz.dim, h.sz.serveMovies, h.sz.singleRows+h.sz.bulkRows); err != nil {
		return err
	}
	dir, reps := serveDir, 1
	if t.res.Workload == "train" {
		dir, reps = filepath.Join(h.work, "trace-train-data"), 3
		if _, err := genWorld(dir, h.seed, h.sz.dim, h.sz.trainMovies, 0); err != nil {
			return err
		}
	}
	var db *reldb.DB
	var emb *embed.Store
	d := tr.do(root, "dataset.LoadDir", func() { db, emb, err = dataset.LoadDir(dir) })
	if err != nil {
		return err
	}
	t.m["dataset.load_s"] = d.Seconds()
	// One solve outside every span, as before the end-to-end rounds: the
	// first one pays for the heap the later ones reuse.
	if _, err := retro.Retrofit(db, emb, trainConfigs[0].config()); err != nil {
		return err
	}
	rows := 0
	for _, tbl := range db.Tables() {
		rows += tbl.NumRows()
	}
	t.m["reldb.rows"] = float64(rows)

	var ex *extract.Extraction
	d = tr.do(root, "extract.FromDB", func() { ex, err = extract.FromDB(db, extract.Options{}) })
	if err != nil {
		return err
	}
	t.m["extract.from_db_s"] = d.Seconds()
	t.m["extract.values"] = float64(ex.NumValues())
	edges := 0
	for _, rel := range ex.Relations {
		edges += len(rel.Edges)
	}
	t.m["extract.edges"] = float64(edges)

	var tok *tokenize.Tokenizer
	t.m["tokenize.new_s"] = tr.do(root, "tokenize.New", func() { tok = tokenize.New(emb) }).Seconds()
	var prob *core.Problem
	t.m["core.build_problem_s"] = tr.do(root, "core.BuildProblem", func() { prob = core.BuildProblem(ex, tok) }).Seconds()

	// The four solvers, called directly on the problem built above.
	solvers := []struct {
		metric string
		run    func() *core.Result
	}{
		{"core.solve_rn_s", func() *core.Result { return core.SolveRN(prob, core.DefaultRN(), core.SolveOptions{}) }},
		{"core.solve_ro_s", func() *core.Result { return core.SolveRO(prob, core.DefaultRO(), core.SolveOptions{}) }},
		{"core.solve_rn_par_s", func() *core.Result { return core.SolveRNParallel(prob, core.DefaultRN(), core.ParallelOptions{}) }},
		{"core.solve_ro_par_s", func() *core.Result { return core.SolveROParallel(prob, core.DefaultRO(), core.ParallelOptions{}) }},
	}
	iters := map[string]int{}
	var rn *core.Result
	for _, s := range solvers {
		var secs []float64
		for r := 0; r < reps; r++ {
			var out *core.Result
			secs = append(secs, tr.do(root, s.metric[:len(s.metric)-2], func() { out = s.run() }).Seconds())
			iters[s.metric] = out.Iterations
			if s.metric == "core.solve_rn_s" {
				rn = out
			}
		}
		t.m[s.metric] = median(secs)
	}
	t.m["core.iter_ms_rn"] = 1000 * t.m["core.solve_rn_s"] / float64(max(iters["core.solve_rn_s"], 1))
	t.m["core.iter_ms_ro"] = 1000 * t.m["core.solve_ro_s"] / float64(max(iters["core.solve_ro_s"], 1))
	t.m["core.par_speedup_rn"] = t.m["core.solve_rn_s"] / t.m["core.solve_rn_par_s"]
	t.m["core.par_speedup_ro"] = t.m["core.solve_ro_s"] / t.m["core.solve_ro_par_s"]

	// The store Retrofit builds from the solved matrix, by the same
	// public calls.
	t.m["embed.build_store_s"] = tr.do(root, "embed.Store.Add(all)", func() {
		s := embed.NewStore(prob.Dim)
		s.DisableANN()
		for _, v := range ex.Values {
			s.Add(deepwalk.ValueKey(ex, v.ID), rn.W.Row(v.ID))
		}
	}).Seconds()

	for _, c := range trainConfigs[:2] {
		var secs []float64
		for r := 0; r < reps; r++ {
			secs = append(secs, tr.do(root, "retro.Retrofit("+c.name+")", func() { _, err = retro.Retrofit(db, emb, c.config()) }).Seconds())
			if err != nil {
				return err
			}
		}
		t.m["retro.retrofit_"+c.name+"_s"] = median(secs)
	}
	row := budget("retro.retrofit_rn_s", "s", t.m["retro.retrofit_rn_s"], map[string]float64{
		"extract.from_db_s":    t.m["extract.from_db_s"],
		"tokenize.new_s":       t.m["tokenize.new_s"],
		"core.build_problem_s": t.m["core.build_problem_s"],
		"core.solve_rn_s":      t.m["core.solve_rn_s"],
		"embed.build_store_s":  t.m["embed.build_store_s"],
	})
	t.m["retro.retrofit_remainder_s"] = row.Remainder
	t.res.Budget = append(t.res.Budget, row)
	t.res.phase(phaseResult{Name: "train_pipeline", Attempted: reps * (len(solvers) + 2), WallS: time.Since(began).Seconds()})
	return nil
}

// serveSetupStage times what stands between a trained model and a server
// that can answer: the index build, quantisation, snapshot write and load.
func (t *traced) serveSetupStage(root int) error {
	h, tr := t.h, t.tr
	var db *reldb.DB
	var emb *embed.Store
	var err error
	// What recovery pays again before it opens its directory. (The
	// training stage's dataset.load_s is a different world on train.)
	t.servedLoadS = tr.do(root, "dataset.LoadDir", func() { db, emb, err = dataset.LoadDir(t.world.dir) }).Seconds()
	if err != nil {
		return err
	}
	// Train unquantised first, so the index build and the quantisation
	// pass are two separate spans.
	cfg := h.serveConfig()
	cfg.Quantization = retro.QuantOff
	if t.sess, err = retro.NewSession(db, emb, cfg); err != nil {
		return err
	}
	store := t.sess.Model().Store()
	values := float64(store.Len())
	d := tr.do(root, "embed.Store.WarmANN", store.WarmANN)
	t.m["embed.warm_ann_s"] = d.Seconds()
	t.m["ann.build_us_per_value"] = us(d) / values
	t.m["embed.quantize_s"] = tr.do(root, "embed.Store.EnableQuantization", func() {
		store.EnableQuantization(retro.QuantSQ8, 0)
		store.WarmANN()
	}).Seconds()

	snap := filepath.Join(h.work, "trace-model.snap")
	t.m["snapshot.write_s"] = tr.do(root, "retro.Session.WriteSnapshotFile", func() { err = t.sess.WriteSnapshotFile(snap) }).Seconds()
	if err != nil {
		return err
	}
	if fi, err := os.Stat(snap); err == nil {
		t.m["snapshot.bytes_per_value"] = float64(fi.Size()) / values
	}
	t.m["snapshot.load_s"] = tr.do(root, "retro.LoadSnapshot", func() {
		var f *os.File
		if f, err = os.Open(snap); err == nil {
			_, err = retro.LoadSnapshot(f)
			f.Close()
		}
	}).Seconds()
	if err != nil {
		return err
	}

	t.frozen = store.Freeze()
	t.m["embed.bytes_per_value"] = float64(t.frozen.MemoryStats().TotalBytes) / values
	t.keys = storeKeys(store, h.seed)
	n := 2000
	if h.smoke {
		n = 200
	}
	if t.hot {
		t.seq = sequence(zipfDraw(len(t.keys), 1.3, h.seed*1000+1), n)
	} else {
		t.seq = sequence(uniformDraw(len(t.keys), h.seed*1000+1), n)
	}
	return nil
}

// sink keeps the kernels' results alive so the calls are not optimised
// away.
var sink float64

// kernelStage times the three distance kernels at the served width.
func (t *traced) kernelStage(root int) error {
	dim := t.h.sz.dim
	rng := rand.New(rand.NewSource(t.h.seed))
	a64, b64 := make([]float64, dim), make([]float64, dim)
	a32, b32 := make([]float32, dim), make([]float32, dim)
	a8, b8 := make([]int8, dim), make([]int8, dim)
	for i := 0; i < dim; i++ {
		a64[i], b64[i] = rng.NormFloat64(), rng.NormFloat64()
		a32[i], b32[i] = float32(a64[i]), float32(b64[i])
		a8[i], b8[i] = int8(rng.Intn(255)-127), int8(rng.Intn(255)-127)
	}
	const calls = 200_000
	per := func(name string, fn func()) float64 {
		return float64(t.tr.do(root, name, func() {
			for i := 0; i < calls; i++ {
				fn()
			}
		})) / calls
	}
	t.m["vec.dot64_ns"] = per("vec.Dot", func() { sink += vec.Dot(a64, b64) })
	t.m["vec.dot32_ns"] = per("vec.Dot32", func() { sink += vec.Dot32(a32, b32) })
	t.m["quant.dot8_ns"] = per("quant.Dot8", func() { sink += float64(quant.Dot8(a8, b8)) })
	t.m["cpu.simd_level"] = float64(cpu.Active())
	return nil
}

// readStage replays the workload's key sequence in-process: against the
// frozen store (index walk and re-rank, batch, exact scan) and against
// the server's handler on a recorder (miss and hit).
func (t *traced) readStage(root int) error {
	tr := t.tr
	began := time.Now()
	type query struct {
		vec  []float64
		self int
	}
	queries := make([]query, len(t.seq))
	for i, ki := range t.seq {
		word := t.keys[ki].storeKey()
		queries[i].vec, _ = t.frozen.VectorOf(word)
		queries[i].self, _ = t.frozen.ID(word)
	}

	var walk, rerank, hops, nodes, reranked float64
	var wall []float64
	var dst []embed.Match
	for _, q := range queries {
		q := q
		var st ann.SearchStats
		wall = append(wall, us(tr.do(root, "embed.Store.TopKAppendStats", func() {
			dst = t.frozen.TopKAppendStats(q.vec, 10, func(id int) bool { return id == q.self }, dst, &st)
		})))
		walk += float64(st.WalkNs) / 1e3
		rerank += float64(st.RerankNs) / 1e3
		hops += float64(st.Hops)
		nodes += float64(st.Nodes)
		reranked += float64(st.Reranked)
	}
	n := float64(len(queries))
	t.m["embed.topk_us"] = median(wall)
	t.m["ann.walk_us"] = walk / n
	t.m["ann.rerank_us"] = rerank / n
	t.m["ann.hops_per_q"] = hops / n
	t.m["ann.nodes_per_q"] = nodes / n
	t.m["ann.reranked_per_q"] = reranked / n

	var many []float64
	ks := make([]int, 16)
	for i := range ks {
		ks[i] = 10
	}
	var dstMany [][]embed.Match
	for lo := 0; lo+16 <= len(queries); lo += 16 {
		batch := queries[lo : lo+16]
		vecs := make([][]float64, 16)
		for i := range batch {
			vecs[i] = batch[i].vec
		}
		many = append(many, us(tr.do(root, "embed.Store.TopKManyAppend(16)", func() {
			dstMany = t.frozen.TopKManyAppend(vecs, ks, func(qi, id int) bool { return id == batch[qi].self }, dstMany)
		})))
	}
	t.m["embed.topk_many16_us"] = median(many)

	var exact []float64
	for _, q := range queries[:min(len(queries), 200)] {
		q := q
		exact = append(exact, us(tr.do(root, "embed.Store.TopKExact", func() {
			t.frozen.TopKExact(q.vec, 10, func(id int) bool { return id == q.self })
		})))
	}
	t.m["embed.topk_exact_us"] = median(exact)

	// The handler on a recorder: the server layer without net/http's
	// connection handling or the loopback. Distinct keys are all misses;
	// one key asked again and again is, after the first time, a hit.
	srv := server.New(t.sess, server.Config{
		CacheSize: t.h.sz.cache,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	handler := srv.Handler()
	serve := func(name string, k key) time.Duration {
		req := httptest.NewRequest(http.MethodGet, k.neighborsPath(10), nil)
		rec := httptest.NewRecorder()
		return tr.do(root, name, func() { handler.ServeHTTP(rec, req) })
	}
	var miss, hit []float64
	for i := 0; i < min(len(t.keys), len(t.seq)); i++ {
		miss = append(miss, us(serve("server.Handler.ServeHTTP(miss)", t.keys[i])))
	}
	hotKey := t.keys[t.seq[0]]
	serve("server.Handler.ServeHTTP(miss)", hotKey)
	for range t.seq {
		hit = append(hit, us(serve("server.Handler.ServeHTTP(hit)", hotKey)))
	}
	t.m["server.handler_miss_us"] = median(miss)
	t.m["server.handler_hit_us"] = median(hit)
	t.res.phase(phaseResult{
		Name:      "read_path_inprocess",
		Attempted: len(queries) + len(many) + len(exact) + len(miss) + len(hit),
		WallS:     time.Since(began).Seconds(),
	})
	return nil
}

// retroRow converts a held-out JSON row back to database values.
func retroRow(row []any) []retro.Value {
	out := make([]retro.Value, len(row))
	for i, v := range row {
		switch x := v.(type) {
		case string:
			out[i] = retro.Text(x)
		case int64:
			out[i] = retro.Int(x)
		case float64:
			out[i] = retro.Float(x)
		default:
			out[i] = retro.Null
		}
	}
	return out
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		body, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeStage runs the write path in-process on a storage engine: inserts
// with their repair, the copy-on-write a published view costs the next
// write, a checkpoint, and recovery of a copy of the directory taken
// while the log still had a tail.
func (t *traced) writeStage(root int) error {
	h, tr := t.h, t.tr
	began := time.Now()
	db, emb, err := dataset.LoadDir(t.world.dir)
	if err != nil {
		return err
	}
	dir := filepath.Join(h.work, "trace-store")
	var eng *retro.StorageEngine
	tr.do(root, "retro.OpenStorage(fresh)", func() {
		eng, err = retro.OpenStorage(dir, db, emb, retro.StorageOptions{Config: h.serveConfig(), SyncEvery: 1})
	})
	if err != nil {
		return err
	}
	sess := eng.Session()
	store := sess.Model().Store()
	tr.do(root, "embed.Store.WarmANN", store.WarmANN)

	rows := t.world.tail
	inserts := 6
	var freeze, prepare, insert, repair, touched, newNodes []float64
	for i := 0; i < inserts; i++ {
		// What the server does between two writes: publish a frozen view,
		// which makes the next write pay a copy-on-write detach.
		freeze = append(freeze, ms(tr.do(root, "embed.Store.Freeze", func() { store.Freeze() })))
		cow := tr.do(root, "embed.Store.PrepareWrite", store.PrepareWrite)
		prepare = append(prepare, ms(cow))
		d := tr.do(root, "retro.Session.InsertBatch(1)", func() { err = sess.InsertBatch("movies", [][]retro.Value{retroRow(rows[i])}) })
		if err != nil {
			return err
		}
		insert = append(insert, ms(cow+d))
		rep := sess.LastRepair()
		repair = append(repair, ms(rep.Duration))
		touched = append(touched, float64(rep.Touched))
		newNodes = append(newNodes, float64(rep.NewNodes))
	}
	t.m["embed.freeze_ms"] = median(freeze)
	t.m["embed.prepare_write_ms"] = median(prepare)
	t.m["session.insert_ms"] = median(insert)
	t.m["session.repair_ms"] = median(repair)
	t.m["session.repair_touched"] = median(touched)
	t.m["session.new_nodes"] = median(newNodes)
	// Read off the engine before the checkpoint rotates the log: the
	// server's retro_wal_* counters restart with every rotation, so a
	// delta across a checkpoint means nothing.
	wal := eng.Stats().WAL
	t.m["storage.wal_bytes_per_row"] = float64(wal.Bytes) / float64(inserts)
	t.m["storage.wal_sync_ms"] = float64(wal.SyncNanos) / 1e6 / float64(max(wal.Syncs, 1))

	var ck retro.CheckpointStats
	tr.do(root, "retro.StorageEngine.Checkpoint", func() { ck, err = eng.Checkpoint() })
	if err != nil {
		return err
	}
	if ck.Rows > 0 {
		t.m["storage.segment_bytes_per_row"] = float64(ck.Bytes) / float64(ck.Rows)
	}

	// Two more rows stay in the log; the directory is copied as a crash
	// would leave it (every append is already fsynced) and recovered.
	tailRows := [][]retro.Value{retroRow(rows[inserts]), retroRow(rows[inserts+1])}
	if err := sess.InsertBatch("movies", tailRows); err != nil {
		return err
	}
	crashed := filepath.Join(h.work, "trace-store-crashed")
	if err := copyDir(dir, crashed); err != nil {
		return err
	}
	if err := eng.Close(); err != nil {
		return err
	}
	db2, emb2, err := dataset.LoadDir(t.world.dir)
	if err != nil {
		return err
	}
	var eng2 *retro.StorageEngine
	t.m["storage.open_s"] = tr.do(root, "retro.OpenStorage(recover)", func() {
		eng2, err = retro.OpenStorage(crashed, db2, emb2, retro.StorageOptions{Config: h.serveConfig(), SyncEvery: 1})
	}).Seconds()
	if err != nil {
		return err
	}
	t.m["storage.replayed_rows"] = float64(eng2.Stats().ReplayedRows)
	t.res.check("trace_replay", eng2.Stats().ReplayedRows == len(tailRows), "%d rows replayed from the copied log, %d were in its tail", eng2.Stats().ReplayedRows, len(tailRows))
	t.recoverWarmS = tr.do(root, "embed.Store.WarmANN(recover)", eng2.Session().Model().Store().WarmANN).Seconds()
	t.res.phase(phaseResult{Name: "write_path_inprocess", Attempted: inserts + 1, WallS: time.Since(began).Seconds()})
	return eng2.Close()
}

// serverStage boots a real retro-serve on an empty data directory, runs
// the workload's traffic at it and reads the server's own telemetry
// before and after each window; then a rate ladder, kill -9 and recovery.
func (t *traced) serverStage(int) error {
	h := t.h
	store := filepath.Join(h.work, "trace-serve-store")
	args := h.storageArgs(t.world.dir, store)
	logPath := filepath.Join(h.work, "serve.log")
	srv, err := startServer(h.bin, logPath, h.client, args...)
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()
	t.m["server.boot_s"] = srv.boot.Seconds()
	baseBytes := dirBytes(store)
	urls := make([]string, len(t.keys))
	for i, k := range t.keys {
		urls[i] = srv.base + k.neighborsPath(10)
	}
	window := 3 * time.Second
	if h.smoke {
		window = 500 * time.Millisecond
	}
	draws := func(stream int64, n int) []int {
		if t.hot {
			return sequence(zipfDraw(len(urls), 1.3, h.seed*1000+stream), n)
		}
		return sequence(uniformDraw(len(urls), h.seed*1000+stream), n)
	}
	readers := h.conns
	beside := t.res.Workload == "write_mixed"
	if beside {
		readers = 1 // the writer takes the other connection
	}
	reads := func(name string, stream int64, rate float64, length time.Duration) phaseResult {
		seq := draws(stream, int(rate*length.Seconds()))
		return openLoop(name, rate, length, readers, func(i int) bool { return h.getOK(urls[seq[i]]) })
	}
	rows := t.world.tail
	nextRow := 0
	writes := func(length time.Duration) phaseResult {
		return closedLoop("insert_single_closed_loop", length, 1, func(_, _ int) (bool, bool) {
			if nextRow >= h.sz.singleRows {
				return false, false
			}
			nextRow++
			return h.postOK(srv.base+"/v1/insert", insertBody(rows[nextRow-1:nextRow]), nil), true
		})
	}
	reads("warmup", 2, t.rate, h.sz.warmup)

	// Window 1: the workload's reads (and, for write_mixed, the inserts
	// beside them).
	m0, err := srv.scrape()
	if err != nil {
		return err
	}
	var rd, wr phaseResult
	var wg sync.WaitGroup
	if beside {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr = writes(window)
		}()
	}
	rd = reads("get_fixed_rate", 3, t.rate, window)
	wg.Wait()
	m1, err := srv.scrape()
	if err != nil {
		return err
	}
	// Window 2: inserts on their own, unless they already ran.
	if !beside {
		wr = writes(window)
	}
	m2, err := srv.scrape()
	if err != nil {
		return err
	}
	t.res.phase(rd)
	t.res.phase(wr)

	lat := latenciesMs(rd.samples)
	if len(lat) == 0 || wr.succeeded() == 0 {
		return fmt.Errorf("traced %s: reads succeeded %d, inserts %d", t.res.Workload, len(lat), wr.succeeded())
	}
	p50 := percentile(lat, 50)
	t.m["loadgen.read_p50_ms"] = p50
	t.m["loadgen.read_p99_ms"] = windowedPercentile(rd.samples, rd.length, 10, 99)
	t.m["loadgen.lateness_p99_ms"] = rd.latenessP99Ms()
	const stageHist = "retro_query_stage_duration_seconds"
	t.m["server.stage_cache_us"] = 1e6 * histMean(m0, m1, stageHist, `stage="cache_lookup"`)
	t.m["server.stage_walk_us"] = 1e6 * histMean(m0, m1, stageHist, `stage="graph_walk"`)
	t.m["server.stage_rerank_us"] = 1e6 * histMean(m0, m1, stageHist, `stage="rerank"`)
	t.m["server.stage_encode_us"] = 1e6 * histMean(m0, m1, stageHist, `stage="encode"`)
	hits := m1["retro_cache_hits_total"] - m0["retro_cache_hits_total"]
	misses := m1["retro_cache_misses_total"] - m0["retro_cache_misses_total"]
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	t.m["server.cache_hit_ratio"] = hitRatio
	// What the client sees beyond the handler itself: net/http on both
	// sides and the loopback.
	handlerUs := hitRatio*t.m["server.handler_hit_us"] + (1-hitRatio)*t.m["server.handler_miss_us"]
	t.m["loadgen.http_overhead_us"] = 1000*p50 - handlerUs
	// The server's own request histogram against the client's stopwatch,
	// mean against mean: how much of a request the telemetry never sees.
	clientMean := mean(lat)
	serverMean := 1000 * histMean(m0, m1, "retro_http_request_duration_seconds", `endpoint="/v1/neighbors"`)
	t.m["obs.telemetry_gap_pct"] = 100 * (clientMean - serverMean) / clientMean

	// The insert window: m1→m2, or m0→m1 when the inserts ran beside the
	// reads.
	wa, wb := m1, m2
	if beside {
		wa, wb = m0, m1
	}
	insLat := latenciesMs(wr.samples)
	t.m["loadgen.insert_p50_ms"] = percentile(insLat, 50)
	t.m["server.repair_ms"] = 1000 * histMean(wa, wb, "retro_repair_duration_seconds", "")
	t.m["server.publish_us"] = 1e6 * histMean(wa, wb, "retro_view_publish_duration_seconds", "")
	t.m["server.alloc_mb_per_insert"] = (wb["retro_alloc_bytes_total"] - wa["retro_alloc_bytes_total"]) / 1e6 / float64(wr.succeeded())
	t.m["server.gc_pause_ms"] = 1000 * (wb["retro_gc_pause_seconds_total"] - wa["retro_gc_pause_seconds_total"])
	t.m["server.heap_sys_mb"] = wb["retro_heap_sys_bytes"] / 1e6
	t.m["storage.checkpoint_ms"] = 1000 * histMean(m0, m2, "retro_checkpoint_duration_seconds", "")
	t.m["storage.checkpoints"] = m2["retro_checkpoints_total"] - m0["retro_checkpoints_total"]
	t.m["storage.disk_bytes_per_row"] = float64(dirBytes(store)-baseBytes) / float64(wr.succeeded())

	// Both budgets are in means: the server's histograms give sums and
	// counts, and a median cannot be put together from its parts' means.
	// A stage's share of the mean request is its time over ALL requests
	// (a hit never walks the graph), not its mean when it runs. What the
	// read row leaves unexplained is the handler around its stages
	// (routing, instrumentation, the response write).
	_, requests := histDelta(m0, m1, "retro_http_request_duration_seconds", `endpoint="/v1/neighbors"`)
	perRequestMs := func(stage string) float64 {
		sum, _ := histDelta(m0, m1, stageHist, `stage="`+stage+`"`)
		return 1000 * sum / math.Max(requests, 1)
	}
	t.res.Budget = append(t.res.Budget,
		budget("read mean (client)", "ms", clientMean, map[string]float64{
			"server stage cache_lookup":    perRequestMs("cache_lookup"),
			"server stage graph_walk":      perRequestMs("graph_walk"),
			"server stage rerank":          perRequestMs("rerank"),
			"server stage encode":          perRequestMs("encode"),
			"net/http + loopback + client": clientMean - serverMean,
		}),
		budget("insert mean (client)", "ms", mean(insLat), map[string]float64{
			"server.repair_ms":    t.m["server.repair_ms"],
			"server.publish_us":   t.m["server.publish_us"] / 1000,
			"storage.wal_sync_ms": t.m["storage.wal_sync_ms"],
		}))

	// Rate ladder: the highest of a few fixed rates the server meets a
	// 5 ms window-p99 at without the generator's backlog growing. A step
	// function, so a per-layer reading and never an end-to-end metric.
	okRate := 0.0
	for step, mult := range []float64{0.5, 1.5, 2.5} {
		length := window / 2
		p := reads(fmt.Sprintf("ladder_%.0f", mult*t.rate), int64(10+step), mult*t.rate, length)
		t.res.phase(p)
		if p.Failed == 0 && !p.backlogGrew() && windowedPercentile(p.samples, p.length, 10, 99) <= 5 {
			okRate = mult * t.rate
		}
	}
	t.m["loadgen.max_rate_ok_rps"] = okRate

	// Crash and recover on the same directory.
	srv.kill()
	killed := time.Now()
	if srv, err = startServer(h.bin, logPath, h.client, args...); err != nil {
		return fmt.Errorf("traced %s: recovery: %w", t.res.Workload, err)
	}
	t.m["server.recover_s"] = time.Since(killed).Seconds()
	t.res.Budget = append(t.res.Budget, budget("server.recover_s", "s", t.m["server.recover_s"], map[string]float64{
		"dataset.load_s (served world)":      t.servedLoadS,
		"storage.open_s":                     t.m["storage.open_s"],
		"embed.warm_ann_s (recovered store)": t.recoverWarmS,
	}))
	return nil
}

// overheadStage measures what recording one span costs and prints it
// against the operations the end-to-end metrics time. The child process
// is never traced, so only the in-process training path carries spans.
func (t *traced) overheadStage() {
	const n = 20000
	probe := newTracer()
	on := probe.do(0, "probe", func() {
		for i := 0; i < n; i++ {
			probe.do(1, "x", func() {})
		}
	})
	var off *tracer
	start := time.Now()
	for i := 0; i < n; i++ {
		off.do(0, "x", func() {})
	}
	perSpan := float64(on-time.Since(start)) / n
	if perSpan < 0 {
		perSpan = 0
	}
	t.m["trace.span_overhead_ns"] = perSpan
	// One Retrofit is one span here; the pipeline replay is six.
	if rn := t.m["retro.retrofit_rn_s"]; rn > 0 {
		t.res.value("trace.overhead_pct_of_retrofit", "%", 100*6*perSpan/1e9/rn)
	}
	t.res.value("trace.overhead_pct_of_http_ops", "%", 0)
}
