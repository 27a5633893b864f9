package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/dataset"
)

// serveConfig is the training configuration of every served model:
// float32 store, SQ8 traversal, HNSW from a threshold every size reaches.
func (h *harness) serveConfig() retro.Config {
	cfg := retro.Defaults()
	cfg.Parallel = -1
	cfg.Precision = retro.F32
	cfg.Quantization = retro.QuantSQ8
	cfg.ANNThreshold = h.sz.annThreshold
	return cfg
}

// getOK issues one GET and reports whether it answered 200. The body is
// drained so the connection returns to the pool.
func (h *harness) getOK(url string) bool {
	resp, err := h.client.Get(url)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// getJSON issues one GET and decodes a 200 answer into v.
func (h *harness) getJSON(url string, v any) error {
	resp, err := h.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postOK posts a JSON body and reports whether it answered 200; the
// decoded answer goes to v when v is not nil.
func (h *harness) postOK(url string, body []byte, v any) bool {
	resp, err := h.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err == nil && resp.StatusCode == http.StatusOK
	}
	return json.NewDecoder(resp.Body).Decode(v) == nil
}

// neighborsAnswer is the part of a /v1/neighbors payload the checks read.
type neighborsAnswer struct {
	Neighbors []struct {
		Column string  `json:"column"`
		Text   string  `json:"text"`
		Score  float64 `json:"score"`
	} `json:"neighbors"`
	Cached bool `json:"cached"`
}

// readEnv is a served snapshot ready for read traffic.
type readEnv struct {
	srv      *child
	args     []string // the flags it boots with
	snapshot string
	keys     []key
	urls     []string // GET /v1/neighbors?k=10 URL per key
}

// setupRead is everything a read workload needs before its first timed
// request: generate the world, train it in-process, build the index,
// write the snapshot, boot retro-serve from it and warm it up.
func (h *harness) setupRead(rep int, warm func(env *readEnv)) (*readEnv, error) {
	dir := filepath.Join(h.work, fmt.Sprintf("serve-data-%d", rep))
	if _, err := genWorld(dir, h.seed, h.sz.dim, h.sz.serveMovies, 0); err != nil {
		return nil, err
	}
	db, emb, err := dataset.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	sess, err := retro.NewSession(db, emb, h.serveConfig())
	if err != nil {
		return nil, err
	}
	store := sess.Model().Store()
	store.WarmANN()
	env := &readEnv{snapshot: filepath.Join(h.work, fmt.Sprintf("model-%d.snap", rep))}
	if err := sess.WriteSnapshotFile(env.snapshot); err != nil {
		return nil, err
	}
	env.keys = storeKeys(store, h.seed)
	env.args = []string{"-data", dir, "-snapshot", env.snapshot, "-cache", fmt.Sprint(h.sz.cache)}
	if err := h.bootRead(env); err != nil {
		return nil, err
	}
	warm(env)
	return env, nil
}

// bootRead (re)starts the server of a read environment.
func (h *harness) bootRead(env *readEnv) error {
	env.srv.kill()
	var err error
	if env.srv, err = startServer(h.bin, filepath.Join(h.work, "serve.log"), h.client, env.args...); err != nil {
		return err
	}
	env.urls = make([]string, len(env.keys))
	for i, k := range env.keys {
		env.urls[i] = env.srv.base + k.neighborsPath(10)
	}
	return nil
}

// runRead drives read_miss (uniform keys) or read_hot (Zipf keys) against
// a snapshot-booted retro-serve.
func (h *harness) runRead(res *result) error {
	if err := h.needServer(); err != nil {
		return err
	}
	hot := res.Workload == "read_hot"
	rate := h.sz.getRate
	if hot {
		rate = h.sz.hotRate
	}
	// Every phase draws from its own seeded stream, so phases do not
	// replay each other's keys into the cache.
	stream := int64(0)
	drawKeys := func(n, count int) []int {
		stream++
		if hot {
			return sequence(zipfDraw(n, 1.3, h.seed*1000+stream), count)
		}
		return sequence(uniformDraw(n, h.seed*1000+stream), count)
	}
	fixedLoop := func(env *readEnv, name string, length time.Duration) phaseResult {
		seq := drawKeys(len(env.keys), int(rate*length.Seconds()))
		return openLoop(name, rate, length, h.conns, func(i int) bool { return h.getOK(env.urls[seq[i]]) })
	}

	var setups, boots []float64
	var env *readEnv
	for rep := 0; rep < h.sz.setups; rep++ {
		if env != nil {
			env.srv.kill()
		}
		start := time.Now()
		var err error
		env, err = h.setupRead(rep, func(env *readEnv) { fixedLoop(env, "warmup", h.sz.warmup) })
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		boots = append(boots, env.srv.boot.Seconds())
	}
	defer func() { env.srv.kill() }()
	// A boot from a snapshot is a fraction of a second: a few more make
	// its median steady. The last one is warmed up again and measured.
	for extra := 0; extra < h.sz.extraBoots; extra++ {
		if err := h.bootRead(env); err != nil {
			return err
		}
		boots = append(boots, env.srv.boot.Seconds())
	}
	if h.sz.extraBoots > 0 {
		fixedLoop(env, "warmup", h.sz.warmup)
	}
	pid := env.srv.pid()

	// Share of the measured time per phase. The fixed-rate phase runs as
	// three segments and capacity as five windows, interleaved across the
	// run, and each metric is the median segment or window: on the shared
	// sandbox a disturbance lasts seconds, and whatever it hits is then
	// one sample of several, not the run's result.
	fixedShare, batchShare, capShare := 0.45, 0.10, 0.08
	if hot {
		fixedShare, batchShare, capShare = 0.50, 0, 0.09
	}
	secs := func(share float64) time.Duration { return time.Duration(share * h.seconds * float64(time.Second)) }

	// Fixed-rate open loop: the latency a user sees at this arrival rate.
	var lat, segP50, segCPU, winP99, late []float64
	fixedSegment := func(i int) error {
		cpu0, err := cpuSeconds(pid)
		if err != nil {
			return err
		}
		seg := fixedLoop(env, fmt.Sprintf("get_fixed_rate_%d", i), secs(fixedShare/3))
		cpu1, err := cpuSeconds(pid)
		if err != nil {
			return err
		}
		res.phase(seg)
		segLat := latenciesMs(seg.samples)
		if len(segLat) == 0 {
			return fmt.Errorf("%s: no request of fixed-rate segment %d succeeded", res.Workload, i)
		}
		lat = append(lat, segLat...)
		segP50 = append(segP50, percentile(segLat, 50))
		segCPU = append(segCPU, 1e6*(cpu1-cpu0)/float64(seg.succeeded()))
		winP99 = append(winP99, windowPercentiles(seg.samples, seg.length, 3, 99)...)
		late = append(late, seg.latenessP99Ms())
		return nil
	}

	// Batches of 16 uniform queries, one index traversal each.
	batchPhase := func() {
		length := secs(batchShare)
		n := int(h.sz.batchRate * length.Seconds())
		bodies := make([][]byte, n)
		for b := range bodies {
			bodies[b] = batchBody(env.keys, drawKeys(len(env.keys), 16))
		}
		batch := openLoop("batch16_fixed_rate", h.sz.batchRate, length, h.conns, func(i int) bool {
			return h.postOK(env.srv.base+"/v1/neighbors/batch", bodies[i], nil)
		})
		res.phase(batch)
		res.sampled("batch16_p50_ms", "ms", latenciesMs(batch.samples))
	}

	// Closed loop: what the server sustains with nproc waiting clients.
	var capacity []float64
	capacityWindow := func() {
		seqs := make([][]int, h.conns)
		for w := range seqs {
			seqs[w] = drawKeys(len(env.keys), 1<<14)
		}
		c := closedLoop(fmt.Sprintf("get_closed_loop_%d", len(capacity)), secs(capShare), h.conns, func(w, i int) (bool, bool) {
			return h.getOK(env.urls[seqs[w][i%len(seqs[w])]]), true
		})
		res.phase(c)
		capacity = append(capacity, c.rate())
	}

	for i := 0; i < 3; i++ {
		if err := fixedSegment(i); err != nil {
			return err
		}
		if i == 1 && batchShare > 0 {
			batchPhase()
		}
		capacityWindow()
		if i < 2 {
			capacityWindow()
		}
	}
	sort.Float64s(lat)
	res.sampled("read_latency_ms", "ms", lat)
	p50 := res.sampled("read_p50_ms", "ms", segP50).Median
	res.value("read_p99_ms", "ms", median(winP99))
	cpuUs := res.sampled("read_cpu_us", "us", segCPU).Median
	res.value("lateness_p99_ms", "ms", median(late))
	capRps := res.sampled("read_capacity_rps", "1/s", capacity).Median

	rss, err := rssPeakMB(pid)
	if err != nil {
		return err
	}
	res.value("rss_peak_mb", "MB", rss)
	setup := res.sampled("setup_s", "s", setups)
	boot := res.sampled("server_boot_s", "s", boots)
	res.value("build_s", "s", h.buildS)
	res.value("values", "count", float64(len(env.keys)))

	if st, err := env.srv.stats(); err == nil {
		hits, misses := digFloat(st, "cache", "hits"), digFloat(st, "cache", "misses")
		if hits+misses > 0 {
			res.value("cache_hit_ratio", "ratio", hits/(hits+misses))
		}
	}

	verify := phaseResult{Name: "verify"}
	if hot {
		h.checkCached(res, env, &verify)
	} else {
		if err := h.checkRecall(res, env, &verify); err != nil {
			return err
		}
		h.checkBatchEqualsSingles(res, env, &verify)
	}
	res.phase(verify)

	res.Metrics = map[string]float64{
		"setup_s":        setup.Median,
		"op_p50_ms":      p50,
		"op_cpu_ms":      cpuUs / 1000,
		"capacity_ops_s": capRps,
		"rss_peak_mb":    rss,
		"restart_s":      boot.Median,
	}
	return nil
}

// batchBody encodes a /v1/neighbors/batch request for the given keys.
func batchBody(keys []key, idx []int) []byte {
	type q struct {
		Table  string `json:"table"`
		Column string `json:"column"`
		Text   string `json:"text"`
	}
	qs := make([]q, len(idx))
	for i, ki := range idx {
		qs[i] = q(keys[ki])
	}
	body, _ := json.Marshal(map[string]any{"queries": qs, "default_k": 10})
	return body
}

// checkRecall compares the HTTP answers for seed-chosen keys with an
// exact scan over the same snapshot loaded in-process.
func (h *harness) checkRecall(res *result, env *readEnv, verify *phaseResult) error {
	f, err := os.Open(env.snapshot)
	if err != nil {
		return err
	}
	model, err := retro.LoadSnapshot(f)
	f.Close()
	if err != nil {
		return err
	}
	model.Store().DisableANN() // ANNThreshold=-1: every in-process answer is the exact scan
	perm := rand.New(rand.NewSource(h.seed + 7)).Perm(len(env.keys))
	if len(perm) > h.sz.recallKeys {
		perm = perm[:h.sz.recallKeys]
	}
	hits, want := 0, 0
	for _, ki := range perm {
		k := env.keys[ki]
		exact, err := model.Neighbors(k.Table, k.Column, k.Text, 10)
		if err != nil {
			return err
		}
		var got neighborsAnswer
		verify.Attempted++
		if err := h.getJSON(env.urls[ki], &got); err != nil {
			verify.Failed++
			continue
		}
		served := map[string]bool{}
		for _, n := range got.Neighbors {
			served[n.Column+"\x00"+n.Text] = true
		}
		for _, m := range exact {
			want++
			if served[m.Word] {
				hits++
			}
		}
	}
	recall := 0.0
	if want > 0 {
		recall = float64(hits) / float64(want)
	}
	res.value("recall_at_10", "ratio", recall)
	res.check("recall_at_10>=0.95", recall >= 0.95, "%.4f over %d keys", recall, len(perm))
	return nil
}

// checkBatchEqualsSingles requires one batch of 16 to answer exactly what
// the 16 single GETs answer.
func (h *harness) checkBatchEqualsSingles(res *result, env *readEnv, verify *phaseResult) {
	idx := rand.New(rand.NewSource(h.seed + 11)).Perm(len(env.keys))[:16]
	var batch struct {
		Results []neighborsAnswer `json:"results"`
	}
	verify.Attempted++
	if !h.postOK(env.srv.base+"/v1/neighbors/batch", batchBody(env.keys, idx), &batch) || len(batch.Results) != len(idx) {
		verify.Failed++
		res.check("batch16_equals_singles", false, "batch request failed")
		return
	}
	equal, answered := 0, 0
	for i, ki := range idx {
		var single neighborsAnswer
		verify.Attempted++
		if err := h.getJSON(env.urls[ki], &single); err != nil {
			verify.Failed++
			continue
		}
		if reflect.DeepEqual(single.Neighbors, batch.Results[i].Neighbors) {
			equal++
		}
		if len(single.Neighbors) > 0 {
			answered++
		}
	}
	res.check("batch16_equals_singles", equal == len(idx) && 2*answered > len(idx),
		"%d of %d answers identical; %d have neighbours", equal, len(idx), answered)
}

// checkCached requires a cache hit to return exactly the neighbours the
// miss before it computed.
func (h *harness) checkCached(res *result, env *readEnv, verify *phaseResult) {
	n := 32
	if n > len(env.keys) {
		n = len(env.keys)
	}
	// A value no relation reaches and no base word covers keeps a zero
	// vector and rightly has no neighbours; most keys must have some.
	same, answered := 0, 0
	for ki := 0; ki < n; ki++ { // the hottest Zipf ranks
		var first, second neighborsAnswer
		verify.Attempted += 2
		if h.getJSON(env.urls[ki], &first) != nil || h.getJSON(env.urls[ki], &second) != nil {
			verify.Failed++
			continue
		}
		if second.Cached && reflect.DeepEqual(first.Neighbors, second.Neighbors) {
			same++
		}
		if len(first.Neighbors) > 0 {
			answered++
		}
	}
	res.check("cached_equals_computed", same == n && 2*answered > n,
		"%d of %d hot keys: second answer cached and identical; %d have neighbours", same, n, answered)
}
