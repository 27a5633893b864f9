package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/core"
	"github.com/retrodb/retro/internal/dataset"
	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/tokenize"
	"github.com/retrodb/retro/internal/vec"
)

// trainConfig is one of the four solver configurations a round runs.
type trainConfig struct {
	name     string // detail-metric stem: train_<name>_s
	variant  retro.Variant
	parallel int
}

var trainConfigs = []trainConfig{
	{"rn", retro.RN, 0}, // Parallel=0 is the paper's single-thread protocol
	{"ro", retro.RO, 0},
	{"rn_par", retro.RN, -1},
	{"ro_par", retro.RO, -1},
}

func (c trainConfig) config() retro.Config {
	cfg := retro.Defaults()
	cfg.Variant = c.variant
	cfg.Parallel = c.parallel
	cfg.ANNThreshold = -1 // training output is read back row by row, never searched
	return cfg
}

func (c trainConfig) hyperparams() core.Hyperparams {
	if c.variant == retro.RO {
		return core.DefaultRO()
	}
	return core.DefaultRN()
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTrain measures retro.Retrofit in-process on the training world.
//
// A round is one Retrofit per configuration. The end-to-end "op" is the
// sequential half of a round (RN then RO at Parallel=0, the paper's
// protocol); capacity is the parallel half, in values trained per second.
func (h *harness) runTrain(res *result) error {
	var setups, loads []float64
	var db *retro.DB
	var emb *retro.Embedding
	for rep := 0; rep < h.sz.setups; rep++ {
		start := time.Now()
		dir := filepath.Join(h.work, fmt.Sprintf("train-data-%d", rep))
		if _, err := genWorld(dir, h.seed, h.sz.dim, h.sz.trainMovies, 0); err != nil {
			return err
		}
		loadStart := time.Now()
		var err error
		if db, emb, err = dataset.LoadDir(dir); err != nil {
			return err
		}
		loads = append(loads, time.Since(loadStart).Seconds())
		// One untimed solve: page in the matrices and let the runtime size
		// its heap before anything is measured.
		if _, err := retro.Retrofit(db, emb, trainConfigs[0].config()); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		// A load is tens of milliseconds: a few more make its median steady.
		for extra := 0; rep == h.sz.setups-1 && extra < 3*h.sz.extraBoots; extra++ {
			loadStart := time.Now()
			if _, _, err := dataset.LoadDir(dir); err != nil {
				return err
			}
			loads = append(loads, time.Since(loadStart).Seconds())
		}
		os.RemoveAll(dir)
	}

	// The problem the checks evaluate the loss on — built by the same
	// public calls Retrofit makes, outside every timed window.
	ex, err := extract.FromDB(db, extract.Options{})
	if err != nil {
		return err
	}
	prob := core.BuildProblem(ex, tokenize.New(emb))

	times := map[string][]float64{}
	var seqMs, parRate, cpuMs []float64
	refLoss := map[string]float64{}
	lossOK, sameOK, descends := true, true, true
	var lossGot string
	phase := phaseResult{Name: "retrofit"}
	began := time.Now()
	for round := 0; round < h.sz.minRounds || time.Since(began).Seconds() < h.seconds; round++ {
		var roundCPU float64
		dur := map[string]float64{}
		seqW := map[retro.Variant]*vec.Matrix{}
		for _, c := range trainConfigs {
			cpu0 := selfCPU()
			start := time.Now()
			m, err := retro.Retrofit(db, emb, c.config())
			d := time.Since(start).Seconds()
			roundCPU += selfCPU() - cpu0
			phase.Attempted++
			if err != nil {
				phase.Failed++
				return err
			}
			dur[c.name] = d
			times[c.name] = append(times[c.name], d)

			// Checks, outside the timed window: the loss is the reference
			// (first) solve's within 1e-6, training lowered it from W0, and
			// the parallel solve equals the sequential one bit for bit, as
			// retro.Config.Parallel documents.
			w := m.Store().Matrix()
			loss := core.Loss(prob, c.hyperparams(), w)
			if ref, seen := refLoss[c.name]; !seen {
				refLoss[c.name] = loss
				lossGot += fmt.Sprintf("%s=%.6g ", c.name, loss)
				res.value("loss_"+c.name, "loss", loss)
				if start := core.Loss(prob, c.hyperparams(), prob.W0); !(loss < start) {
					descends = false
				}
			} else if math.Abs(loss-ref) > 1e-6*math.Abs(ref) {
				lossOK = false
			}
			if c.parallel == 0 {
				seqW[c.variant] = w
			} else if !w.Equal(seqW[c.variant], 0) {
				sameOK = false
			}
		}
		seqMs = append(seqMs, 1000*(dur["rn"]+dur["ro"]))
		parRate = append(parRate, float64(2*prob.N)/(dur["rn_par"]+dur["ro_par"]))
		cpuMs = append(cpuMs, 1000*roundCPU)
	}
	phase.Wall = time.Since(began)
	phase.WallS = phase.Wall.Seconds()
	res.phase(phase)

	for _, c := range trainConfigs {
		res.sampled("train_"+c.name+"_s", "s", times[c.name])
	}
	setup := res.sampled("setup_s", "s", setups)
	load := res.sampled("dataset_load_s", "s", loads)
	seq := res.sampled("train_seq_round_ms", "ms", seqMs)
	capacity := res.sampled("train_par_values_per_s", "1/s", parRate)
	cpu := res.sampled("train_round_cpu_ms", "ms", cpuMs)
	res.value("values", "count", float64(prob.N))
	rss, err := rssPeakMB(os.Getpid())
	if err != nil {
		return err
	}
	res.value("rss_peak_mb", "MB", rss)

	res.check("loss_matches_reference", lossOK, "%s(every repeat within 1e-6 relative of the first)", lossGot)
	res.check("loss_below_w0", descends, "each solver ends below the loss of the initial W0")
	res.check("sequential_equals_parallel", sameOK, "RN and RO matrices identical at Parallel=0 and Parallel=-1")

	res.Metrics = map[string]float64{
		"setup_s":        setup.Median,
		"op_p50_ms":      seq.Median,
		"op_cpu_ms":      cpu.Median,
		"capacity_ops_s": capacity.Median,
		"rss_peak_mb":    rss,
		"restart_s":      load.Median,
	}
	return nil
}
