package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux fixes it at 100 for user space on every architecture Go targets.
const clockTick = 100

// buildServer compiles cmd/retro-serve from the checkout's own sources
// into dir and reports how long the build took (reported as
// loadgen.build_s, never as part of setup_s).
func buildServer(root, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "retro-serve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/retro-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building retro-serve: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// child is one retro-serve child process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port of the serving listener
	admin  string // same for the admin listener (/metrics, /readyz)
	boot   time.Duration
	logf   *os.File
	client *http.Client
	exited chan error // receives cmd.Wait's result once the process is gone
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the daemon with the given flags plus fresh loopback
// listeners, and returns once /readyz answers 200. The time from spawn to
// that answer is server.boot.
func startServer(bin, logPath string, client *http.Client, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	adminPort, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s := &child{
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		admin:  fmt.Sprintf("http://127.0.0.1:%d", adminPort),
		logf:   logf,
		client: client,
	}
	args = append(args,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-admin", fmt.Sprintf("127.0.0.1:%d", adminPort),
		"-log-level", "warn")
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- s.cmd.Wait() }()
	deadline := time.Now().Add(120 * time.Second)
	for {
		select {
		case err := <-exited:
			logf.Close()
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("retro-serve exited before ready: %v\n%s", err, tail)
		default:
		}
		// The admin listener comes up with the serving one; readiness on it
		// implies both are accepting.
		if resp, err := client.Get(s.admin + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if r2, err := client.Get(s.base + "/healthz"); err == nil {
					io.Copy(io.Discard, r2.Body)
					r2.Body.Close()
					break
				}
			}
		}
		if time.Now().After(deadline) {
			s.cmd.Process.Kill()
			<-exited
			logf.Close()
			return nil, fmt.Errorf("retro-serve not ready after 120s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.boot = time.Since(start)
	// Wait was consumed by the watcher goroutine; kill() collects it.
	s.exited = exited
	return s, nil
}

// kill sends SIGKILL (no shutdown hook runs: the final checkpoint is
// skipped, exactly as in a crash) and waits for the process to be gone.
func (s *child) kill() {
	if s == nil || s.cmd == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.exited
	s.logf.Close()
	s.cmd = nil
}

func (s *child) pid() int { return s.cmd.Process.Pid }

// cpuSeconds is utime+stime of the process so far.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis, so utime and stime (fields 14 and 15) are
	// at offsets 11 and 12 from there.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTick, nil
}

// rssPeakMB is VmHWM, the high-water mark of the resident set.
func rssPeakMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// promSample is a scrape of /metrics: series (name plus label set,
// exactly as exposed) to value.
type promSample map[string]float64

// scrape reads the admin listener's Prometheus exposition.
func (s *child) scrape() (promSample, error) {
	resp, err := s.client.Get(s.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histDelta is what a histogram series gained between two scrapes.
func histDelta(before, after promSample, name, labels string) (sum, count float64) {
	s, c := name+"_sum", name+"_count"
	if labels != "" {
		s, c = s+"{"+labels+"}", c+"{"+labels+"}"
	}
	return after[s] - before[s], after[c] - before[c]
}

// histMean is the mean of a histogram series over the window between two
// scrapes (Δsum ÷ Δcount), 0 when nothing was observed.
func histMean(before, after promSample, name, labels string) float64 {
	sum, n := histDelta(before, after, name, labels)
	if n <= 0 {
		return 0
	}
	return sum / n
}

// stats fetches /v1/stats.
func (s *child) stats() (map[string]any, error) {
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: HTTP %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// dig walks nested JSON objects; a missing key yields nil.
func dig(m map[string]any, path ...string) any {
	var cur any = m
	for _, p := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		cur = obj[p]
	}
	return cur
}

func digFloat(m map[string]any, path ...string) float64 {
	f, _ := dig(m, path...).(float64)
	return f
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
