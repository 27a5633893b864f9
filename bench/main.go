// Command bench is the repository's end-to-end benchmark: four workloads
// (train, read_miss, read_hot, write_mixed) against the artefacts users
// touch — retro.Retrofit in-process, and a real cmd/retro-serve child
// process over loopback HTTP — plus a traced run that times each layer's
// public functions from outside. See README.md for the metric catalogue.
//
//	go -C bench run . -workload all                 # every workload, human-readable
//	go -C bench run . --workload read_miss --seed 3 --seconds 15 --trace 0
//	go -C bench run . -workload all -runs 10 -out results/BENCH_11.json
//	go -C bench run . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json records the same number for the driver.
const runSeconds = 15

// sizes fixes the scale of a run. The full sizes are chosen so that one
// run — three set-ups included — ends well inside the driver's budget on
// a two-core box; the smoke sizes exercise the same code in seconds.
type sizes struct {
	dim          int
	trainMovies  int // L: the training world
	serveMovies  int // M: the served world
	cache        int // -cache entries; the vocabulary is ~17x this
	annThreshold int
	setups       int // set-ups per run; setup_s is their median
	extraBoots   int // further restarts after the set-ups, so restart_s is a median of setups+extraBoots
	recoveries   int // write_mixed: kill -9 / recover cycles
	warmup       time.Duration

	getRate     float64 // read_miss fixed rate, req/s
	hotRate     float64 // read_hot fixed rate, req/s
	batchRate   float64 // read_miss 16-query batches per second
	mixReadRate float64 // write_mixed reads beside the inserts, req/s
	singleRows  int     // write_mixed phase A: at most this many single-row inserts
	bulkBatches int     // write_mixed phase B: at most this many batches
	bulkRows    int
	recallKeys  int
	minRounds   int // train: rounds measured at least
}

var fullSizes = sizes{
	dim: 300, trainMovies: 2000, serveMovies: 1000, cache: 256, annThreshold: 64,
	setups: 3, extraBoots: 4, recoveries: 3, warmup: 500 * time.Millisecond,
	getRate: 1000, hotRate: 1500, batchRate: 100, mixReadRate: 500, singleRows: 128,
	bulkBatches: 8, bulkRows: 32, recallKeys: 512, minRounds: 3,
}

var smokeSizes = sizes{
	dim: 48, trainMovies: 300, serveMovies: 300, cache: 64, annThreshold: 64,
	setups: 2, extraBoots: 1, recoveries: 2, warmup: 200 * time.Millisecond,
	getRate: 500, hotRate: 500, batchRate: 50, mixReadRate: 200, singleRows: 256,
	bulkBatches: 3, bulkRows: 8, recallKeys: 64, minRounds: 1,
}

// harness is the state shared by the workloads of one invocation.
type harness struct {
	sz      sizes
	seed    int64
	seconds float64
	smoke   bool
	root    string // repository checkout
	work    string // scratch directory, removed on exit
	outDir  string
	bin     string // the retro-serve child binary
	buildS  float64
	conns   int // generator connections and goroutines: nproc
	client  *http.Client
}

// findRoot walks up from the working directory to the checkout that
// holds cmd/retro-serve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "retro-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no checkout with cmd/retro-serve above the working directory")
		}
		dir = parent
	}
}

func newHarness(seed int64, seconds float64, smoke bool) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{sz: fullSizes, seed: seed, seconds: seconds, smoke: smoke, root: root, conns: runtime.NumCPU()}
	if smoke {
		h.sz = smokeSizes
	}
	if h.conns > 4 {
		h.conns = 4 // a bigger box should not turn the fixed rates into a different workload
	}
	buildDir := filepath.Join(root, "bench", ".build")
	h.outDir = filepath.Join(root, "bench", "out")
	for _, d := range []string{buildDir, h.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if h.work, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, err
	}
	// MaxConnsPerHost is the hard cap behind "the generator never uses
	// more than nproc connections": a request beyond it waits for a free
	// connection instead of dialling another.
	h.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: h.conns, MaxIdleConnsPerHost: h.conns, MaxConnsPerHost: h.conns,
		},
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.work) }

// needServer builds the child binary once per invocation.
func (h *harness) needServer() error {
	if h.bin != "" {
		return nil
	}
	// The binary lives beside the scratch directories and outlives the
	// run: the next invocation's `go build` finds it up to date.
	bin, d, err := buildServer(h.root, filepath.Dir(h.work))
	if err != nil {
		return err
	}
	h.bin, h.buildS = bin, d.Seconds()
	return nil
}

// run executes one workload in one mode.
func (h *harness) run(workload string, trace bool) (*result, error) {
	start := time.Now()
	res := &result{Workload: workload, Seed: h.seed, Seconds: h.seconds, Smoke: h.smoke, Trace: trace, Metrics: map[string]float64{}}
	var err error
	switch {
	case trace:
		err = h.runTraced(res)
	case workload == "train":
		err = h.runTrain(res)
	case workload == "read_miss" || workload == "read_hot":
		err = h.runRead(res)
	case workload == "write_mixed":
		err = h.runWrite(res)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	res.WallS = time.Since(start).Seconds()
	return res, err
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "all", "train, read_miss, read_hot, write_mixed or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "how long each run measures")
	traceFlag := flag.String("trace", "0", "1 = traced run emitting the per-layer metrics, 0 = end-to-end metrics with tracing off")
	smoke := flag.Bool("smoke", false, "tiny sizes and ~1s phases: exercises every code path and check in seconds")
	runs := flag.Int("runs", 1, "runs per workload, on consecutive seeds, for -out files")
	out := flag.String("out", "", "write every run's full result to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice on this tree and compare the two")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	trace := *traceFlag == "1" || *traceFlag == "true"
	if !trace && *traceFlag != "0" && *traceFlag != "false" {
		fmt.Fprintf(os.Stderr, "bench: -trace takes 0 or 1, got %q\n", *traceFlag)
		return 2
	}
	if *workload != "all" && !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 && !*smoke {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if *smoke && *seconds > 2 {
		*seconds = 2
	}

	suite := func() (*resultFile, bool, error) {
		file := &resultFile{Schema: resultSchema}
		ok := true
		for _, w := range workloads {
			if *workload != "all" && w.Name != *workload {
				continue
			}
			for r := 0; r < *runs; r++ {
				h, err := newHarness(*seed+int64(r), *seconds, *smoke)
				if err != nil {
					return nil, false, err
				}
				res, err := h.run(w.Name, trace)
				h.close()
				if err != nil {
					return nil, false, fmt.Errorf("%s: %w", w.Name, err)
				}
				res.print(os.Stdout)
				file.Runs = append(file.Runs, res)
				ok = ok && res.correct()
			}
		}
		return file, ok, nil
	}

	if *selfcheck {
		a, okA, err := suite()
		if err == nil {
			var b *resultFile
			var okB bool
			if b, okB, err = suite(); err == nil {
				worse := compareResults(os.Stdout, a, b)
				if worse || !okA || !okB {
					return 1
				}
				return 0
			}
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	file, ok, err := suite()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		body, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(body, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The driver reads the last line of standard output: the contract
	// object of the (single) run it asked for.
	line, err := file.Runs[len(file.Runs)-1].contractLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	if !ok {
		return 1
	}
	return 0
}
