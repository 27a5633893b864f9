package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/datagen"
	"github.com/retrodb/retro/internal/storage"
)

// flakySys is a storage syscall set whose fsync starts failing when the
// flag flips — a disk going bad under a running server.
type flakySys struct{ fail atomic.Bool }

func (f *flakySys) sys() *storage.Sys {
	return &storage.Sys{
		Fsync: func(file *os.File) error {
			if f.fail.Load() {
				return errors.New("injected disk failure")
			}
			return file.Sync()
		},
	}
}

// newStorageServer boots a server over a storage engine in dir, with the
// ANN path forced on like newTestServer.
func newStorageServer(t *testing.T, dir string, sys *storage.Sys) (*Server, []string) {
	t.Helper()
	w := datagen.TMDB(datagen.TMDBConfig{Movies: 50, Dim: 16, Seed: 1})
	cfg := retro.Defaults()
	cfg.ANNThreshold = 1
	eng, err := retro.OpenStorage(dir, w.DB, w.Embedding, retro.StorageOptions{Config: cfg, Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	titles, err := w.DB.QueryText(`SELECT title FROM movies`)
	if err != nil || len(titles) == 0 {
		t.Fatalf("no seed titles (err=%v)", err)
	}
	return New(eng.Session(), Config{Engine: eng}), titles
}

// insertRow posts one movies row with the given id and title.
func insertRow(t *testing.T, s *Server, h http.Handler, id int, title string) (int, map[string]any) {
	t.Helper()
	cols := columnCount(t, s, "movies")
	row := makeRow(cols, map[int]any{0: id, 1: title})
	reqBody, _ := json.Marshal(map[string]any{"table": "movies", "values": row})
	rec, body := post(t, h, "/v1/insert", string(reqBody))
	return rec.Code, body
}

func TestStatsStorageSection(t *testing.T) {
	s, _ := newStorageServer(t, t.TempDir(), nil)
	h := s.Handler()

	_, body := get(t, h, "/v1/stats")
	st, ok := body["storage"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no storage section: %v", body)
	}
	if st["epoch"] != float64(1) || st["pending_rows"] != float64(0) {
		t.Fatalf("fresh storage stats = %v", st)
	}

	if code, body := insertRow(t, s, h, 9001, "durable film"); code != http.StatusOK {
		t.Fatalf("insert: code %d body %v", code, body)
	}
	_, body = get(t, h, "/v1/stats")
	st = body["storage"].(map[string]any)
	if st["pending_rows"] != float64(1) {
		t.Fatalf("pending_rows after insert = %v", st["pending_rows"])
	}
	wal, ok := st["wal"].(map[string]any)
	if !ok || wal["last_seq"] != float64(1) {
		t.Fatalf("wal stats after insert = %v", st["wal"])
	}

	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Skipped || ck.Rows != 1 {
		t.Fatalf("checkpoint = %+v", ck)
	}
	_, body = get(t, h, "/v1/stats")
	st = body["storage"].(map[string]any)
	if st["epoch"] != float64(2) || st["segments"] != float64(1) || st["pending_rows"] != float64(0) {
		t.Fatalf("storage stats after checkpoint = %v", st)
	}
	if _, ok := st["last_checkpoint"].(map[string]any); !ok {
		t.Fatalf("no last_checkpoint in %v", st)
	}
}

func TestCheckpointWithoutEngine(t *testing.T) {
	s, _ := newTestServer(t)
	ck, err := s.Checkpoint()
	if err != nil || !ck.Skipped {
		t.Fatalf("engine-less checkpoint = %+v, %v", ck, err)
	}
}

// TestInsertWALFailure flips the disk to failing mid-flight: the insert
// must be refused with wal_failed, the view must not advance, and the
// replica must drain via /readyz.
func TestInsertWALFailure(t *testing.T) {
	disk := &flakySys{}
	s, _ := newStorageServer(t, t.TempDir(), disk.sys())
	h := s.Handler()
	epochBefore := s.currentView().epoch
	valuesBefore := s.currentView().numValues

	disk.fail.Store(true)
	code, body := insertRow(t, s, h, 9002, "lost film")
	if code != http.StatusInternalServerError || errCode(body) != "wal_failed" {
		t.Fatalf("insert on failing disk: code %d body %v, want 500 wal_failed", code, body)
	}
	if v := s.currentView(); v.epoch != epochBefore || v.numValues != valuesBefore {
		t.Fatalf("view advanced past an unlogged insert: epoch %d→%d, values %d→%d",
			epochBefore, v.epoch, valuesBefore, v.numValues)
	}
	if !s.session().Stale() {
		t.Fatal("session not stale after WAL failure")
	}
	if rec, body := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on stale session: code %d body %v, want 503", rec.Code, body)
	}
}

func TestStorageMetricsExported(t *testing.T) {
	s, _ := newStorageServer(t, t.TempDir(), nil)
	out := scrape(t, s)
	for _, name := range []string{
		"retro_wal_appends_total", "retro_wal_syncs_total", "retro_wal_bytes",
		"retro_wal_last_seq", "retro_storage_epoch", "retro_storage_segments",
		"retro_storage_pending_rows", "retro_checkpoints_total",
		"retro_storage_compactions_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics output missing %s", name)
		}
	}
}

// TestWALCountersMonotonicAcrossCheckpoint scrapes the retro_wal_*
// counters around a checkpoint, which rotates the log: a Prometheus
// counter that drops breaks rate(), so none may decrease.
func TestWALCountersMonotonicAcrossCheckpoint(t *testing.T) {
	s, _ := newStorageServer(t, t.TempDir(), nil)
	h := s.Handler()
	counters := []string{"retro_wal_appends_total", "retro_wal_syncs_total", "retro_wal_sync_seconds_total"}
	last := map[string]float64{}
	check := func(step string) {
		t.Helper()
		out := scrape(t, s)
		for _, name := range counters {
			v := sampleValue(t, out, name)
			if v < last[name] {
				t.Errorf("%s: %s fell from %g to %g", step, name, last[name], v)
			}
			last[name] = v
		}
	}
	if code, body := insertRow(t, s, h, 9001, "first durable film"); code != http.StatusOK {
		t.Fatalf("insert: code %d body %v", code, body)
	}
	check("after the first insert")
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("after the checkpoint")
	if code, body := insertRow(t, s, h, 9002, "second durable film"); code != http.StatusOK {
		t.Fatalf("insert: code %d body %v", code, body)
	}
	check("after the second insert")
	if last["retro_wal_appends_total"] != 2 {
		t.Fatalf("retro_wal_appends_total = %g after two inserts, want 2", last["retro_wal_appends_total"])
	}
}

// sampleValue returns the value of an unlabelled sample in a Prometheus
// text exposition.
func sampleValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("no sample %s in the exposition", name)
	return 0
}
