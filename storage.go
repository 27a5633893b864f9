package retro

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/retrodb/retro/internal/storage"
)

// The epoch-based storage engine. OpenStorage owns a data directory and
// couples a live Session to three durable artifacts (see internal/storage
// for the on-disk formats):
//
//   - a write-ahead log of committed insert batches, appended and fsynced
//     before each insert is acknowledged;
//   - delta snapshot segments, one per checkpoint, carrying only the rows
//     committed and the store vectors changed since the previous
//     checkpoint epoch — O(delta) where a full snapshot is O(model);
//   - a MANIFEST naming the base snapshot, the ordered segment chain and
//     the active log, replaced by atomic rename so recovery is a pure
//     function of the directory contents.
//
// Recovery replays manifest -> base -> segments -> WAL tail, reattaches
// the database, and resumes incremental maintenance exactly where the
// crashed writer left off. Once the segment chain grows past MaxSegments
// the next checkpoint compacts: it writes a fresh full base snapshot and
// resets the chain.

// DefaultMaxSegments is the segment-chain length at which a checkpoint
// compacts into a fresh full base snapshot (see StorageOptions).
const DefaultMaxSegments = 8

// DefaultReplLog is the default in-memory replication window: how many
// recent WAL records the engine retains for followers to tail (see
// StorageOptions.ReplLog).
const DefaultReplLog = 4096

// StorageOptions configures OpenStorage.
type StorageOptions struct {
	// Config is the training configuration used when the directory is
	// empty (fresh start) and carried by snapshots thereafter.
	Config Config
	// SyncEvery is the WAL group-commit interval: fsync once every n
	// appends. Values <= 1 fsync every append (the durable default);
	// larger values trade a tail of unacknowledged writes on crash for
	// fewer fsyncs under bulk load.
	SyncEvery int
	// MaxSegments caps the delta segment chain; the checkpoint that
	// would exceed it writes a full base snapshot instead (compaction).
	// 0 selects DefaultMaxSegments.
	MaxSegments int
	// ReplLog caps the in-memory replication window: the engine retains
	// this many recent WAL records (across checkpoints) so followers can
	// resume tailing without a full re-sync. A follower whose resume
	// point has been pruned past — typically after it sat disconnected
	// across a compaction — is told to re-sync instead. 0 selects
	// DefaultReplLog; negative disables retention (every follower
	// reconnect behind the live tail forces a re-sync).
	ReplLog int
	// Sys overrides the durability syscalls (crash-test injection); nil
	// uses the real fsync and rename.
	Sys *storage.Sys
}

// CheckpointStats describes one checkpoint.
type CheckpointStats struct {
	Epoch     uint64        // epoch the checkpoint advanced to
	Compacted bool          // wrote a full base instead of a delta segment
	Rows      int           // committed rows captured
	Vectors   int           // changed store vectors captured
	Bytes     int64         // bytes written (segment or base)
	Duration  time.Duration // wall time
	Skipped   bool          // nothing changed since the last checkpoint
}

// StorageStats is a point-in-time summary of the engine, exported by the
// serving layer's /v1/stats and metrics endpoints.
type StorageStats struct {
	Dir         string
	Epoch       uint64 // current checkpoint epoch
	Segments    int    // delta segments in the manifest chain
	PendingRows int    // rows logged since the last checkpoint
	// WAL describes the active log. Its Appends, Syncs and SyncNanos are
	// totals over every log this handle has written, so they only grow
	// across the rotation at each checkpoint; Bytes, Records and LastSeq
	// describe the active log alone.
	WAL             storage.WALStats
	Checkpoints     uint64          // checkpoints taken by this handle
	Compactions     uint64          // of which compactions
	ReplayedRecords int             // WAL records replayed at open
	ReplayedRows    int             // rows those records carried
	WALTruncated    bool            // open cut a torn record off the log
	LastCheckpoint  CheckpointStats // most recent non-skipped checkpoint
}

// StorageEngine binds a Session to a durable data directory. The engine
// serialises its own log appends and checkpoints internally, but the
// Session it returns has the usual discipline: callers must exclude
// concurrent inserts during Checkpoint and Close (the serving layer
// holds its write mutex).
type StorageEngine struct {
	mu   sync.Mutex
	dir  string
	sys  *storage.Sys
	sess *Session
	wal  *storage.WAL
	man  *storage.Manifest

	maxSegments int

	// lastCkpt is the epoch of the last checkpoint: store rows stamped
	// at or above it have not yet been captured by a segment.
	lastCkpt uint64
	// pending are the batches logged since the last checkpoint, in
	// commit order — exactly the WAL records past the manifest's
	// high-water mark, kept in memory so a checkpoint never re-reads
	// the log.
	pending     []storage.Batch
	pendingRows int

	// replLog is the in-memory replication window: the most recent WAL
	// records (seq-contiguous, capped at replCap), retained ACROSS
	// checkpoints so a briefly-disconnected follower can resume tailing
	// without re-downloading the store. Batches are shared with pending
	// — both are immutable after commit.
	replLog []storage.Record
	replCap int
	// replNotify is closed (and replaced) on every durable append, waking
	// long-poll replication streams waiting for new records.
	replNotify chan struct{}

	// retired sums the activity counters of the logs that checkpoints
	// rotated out, which Stats adds to the active log's.
	retired storage.WALStats

	replayedRecords int
	replayedRows    int
	walTruncated    bool
	checkpoints     uint64
	compactions     uint64
	lastStats       CheckpointStats
	closed          bool
}

// OpenStorage opens (or initialises) the data directory and returns the
// engine with a live session attached.
//
// Three boot paths, decided by the directory contents:
//
//   - A MANIFEST: recover. Load the base snapshot, apply the segment
//     chain (rows into the database, vectors into the store), reattach
//     the database, replay the WAL tail through the delta-repair path,
//     and sweep orphan files from any interrupted checkpoint.
//   - No MANIFEST but exactly one legacy *.snap file: adopt it as the
//     base of a fresh manifest (the pre-engine single-file format
//     becomes a degenerate manifest with an empty segment chain).
//   - Empty: train from db and base under opts.Config, persist the
//     initial base snapshot, and start the first log.
//
// In the recovery path db must be the same database the directory was
// written against (the segments re-apply its missing rows); in the
// other two it is the training input.
func OpenStorage(dir string, db *DB, base *Embedding, opts StorageOptions) (*StorageEngine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &StorageEngine{
		dir: dir, sys: opts.Sys, maxSegments: opts.MaxSegments,
		replCap: opts.ReplLog, replNotify: make(chan struct{}),
	}
	if e.maxSegments <= 0 {
		e.maxSegments = DefaultMaxSegments
	}
	if e.replCap == 0 {
		e.replCap = DefaultReplLog
	}

	man, err := storage.ReadManifest(dir)
	switch {
	case err == nil:
		if err := e.recover(db, base, man); err != nil {
			return nil, err
		}
	case errors.Is(err, os.ErrNotExist):
		legacy, lerr := findLegacySnapshot(dir)
		if lerr != nil {
			return nil, lerr
		}
		if legacy != "" {
			err = e.adoptLegacy(db, base, legacy)
		} else {
			err = e.freshStart(db, base, opts.Config)
		}
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("retro: reading manifest in %s: %w", dir, err)
	}

	if opts.SyncEvery > 1 {
		e.wal.SetSyncEvery(opts.SyncEvery)
	}
	// Only now that recovery replay is complete does the session start
	// logging: replayed records must not be re-appended to the log they
	// came from.
	e.sess.walAppend = e.appendWAL
	storage.CleanDir(dir, e.man)
	return e, nil
}

// findLegacySnapshot looks for a single pre-engine snapshot file to
// adopt. More than one *.snap with no manifest is ambiguous and an
// error rather than a guess.
func findLegacySnapshot(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var snaps []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".snap" {
			snaps = append(snaps, e.Name())
		}
	}
	switch len(snaps) {
	case 0:
		return "", nil
	case 1:
		return snaps[0], nil
	}
	return "", fmt.Errorf("retro: %s has %d snapshot files and no MANIFEST; remove all but one to adopt it", dir, len(snaps))
}

// freshStart trains the initial model and lays down epoch 1: a full
// base snapshot, an empty log, and the manifest naming both. The
// session is then RELOADED from the base it just wrote, so the booted
// state is bit-identical to what any later recovery of this directory
// produces (the snapshot packs vectors as float32; serving the f64
// training output directly would make the first boot the odd one out).
func (e *StorageEngine) freshStart(db *DB, base *Embedding, cfg Config) error {
	sess, err := NewSession(db, base, cfg)
	if err != nil {
		return err
	}
	baseName := storage.BaseName(1)
	if err := storage.WriteFileAtomic(filepath.Join(e.dir, baseName), e.sys, sess.Snapshot); err != nil {
		return fmt.Errorf("retro: writing base snapshot: %w", err)
	}
	return e.adoptLegacy(db, base, baseName)
}

// adoptLegacy promotes a pre-engine single-file snapshot to the base of
// a fresh manifest. The file keeps its name; only the manifest and the
// first log are written.
func (e *StorageEngine) adoptLegacy(db *DB, base *Embedding, name string) error {
	f, err := os.Open(filepath.Join(e.dir, name))
	if err != nil {
		return err
	}
	m, err := LoadSnapshot(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("retro: adopting legacy snapshot %s: %w", name, err)
	}
	sess, err := resumeModel(db, base, m)
	if err != nil {
		return fmt.Errorf("retro: adopting legacy snapshot %s: %w", name, err)
	}
	return e.install(sess, name)
}

// install writes the initial durable state for a session whose model is
// fully captured by the already-present base snapshot: log first, then
// the manifest naming both, so the manifest never names a missing file.
// On success the engine is at epoch 1 with an empty chain.
func (e *StorageEngine) install(sess *Session, baseName string) error {
	walName := storage.WALName(1)
	wal, err := storage.CreateWAL(filepath.Join(e.dir, walName), 0, e.sys)
	if err != nil {
		return fmt.Errorf("retro: creating WAL: %w", err)
	}
	man := &storage.Manifest{Epoch: 1, WALSeq: 0, Base: baseName, WAL: walName}
	if err := storage.WriteManifest(e.dir, man, e.sys); err != nil {
		wal.Close()
		os.Remove(filepath.Join(e.dir, walName))
		return fmt.Errorf("retro: writing manifest: %w", err)
	}
	store := sess.Model().Store()
	store.SetEpoch(man.Epoch)
	e.sess, e.wal, e.man, e.lastCkpt = sess, wal, man, man.Epoch
	return nil
}

// recover rebuilds the full engine state from a manifest: base model,
// segment chain, database reattachment, WAL tail replay.
func (e *StorageEngine) recover(db *DB, base *Embedding, man *storage.Manifest) error {
	f, err := os.Open(filepath.Join(e.dir, man.Base))
	if err != nil {
		return fmt.Errorf("retro: opening base snapshot: %w", err)
	}
	model, err := LoadSnapshot(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("retro: loading base snapshot %s: %w", man.Base, err)
	}

	// Apply the delta chain: committed rows re-enter the database,
	// changed vectors overwrite (or append to) the store — at the
	// writer's store precision (float64 rows, or float32 words from an
	// F32 store), so recovered vectors are bit-identical to the
	// checkpointed ones rather than rounded through the base's float32
	// packing.
	store := model.Store()
	for _, name := range man.Segments {
		seg, err := storage.ReadSegmentFile(filepath.Join(e.dir, name))
		if err != nil {
			return fmt.Errorf("retro: loading segment %s: %w", name, err)
		}
		for _, b := range seg.Batches {
			for _, row := range b.Rows {
				if _, err := db.Insert(b.Table, row); err != nil {
					return fmt.Errorf("retro: replaying segment %s into table %s: %w", name, b.Table, err)
				}
			}
		}
		for _, v := range seg.Vectors {
			store.Add(v.Key, v.Float64())
		}
	}

	sess, err := resumeModel(db, base, model)
	if err != nil {
		return fmt.Errorf("retro: reattaching database after segment replay: %w", err)
	}
	// resumeModel may have rebuilt the store (extraction renumbered the
	// vocabulary); stamp the epoch on whichever store survived. Restored
	// rows keep their zero stamps — they are durable — while everything
	// the WAL replay below touches is stamped at the manifest epoch and
	// lands in the next delta.
	sess.Model().Store().SetEpoch(man.Epoch)
	e.sess, e.man, e.lastCkpt = sess, man, man.Epoch

	wal, records, err := storage.OpenWAL(filepath.Join(e.dir, man.WAL), e.sys)
	if err != nil {
		return fmt.Errorf("retro: opening WAL %s: %w", man.WAL, err)
	}
	e.wal = wal
	e.walTruncated = wal.Truncated()
	for _, rec := range records {
		if rec.Seq <= man.WALSeq {
			// Already covered by the segment chain; never replay.
			continue
		}
		if err := sess.InsertBatch(rec.Batch.Table, rec.Batch.Rows); err != nil {
			wal.Close()
			return fmt.Errorf("retro: replaying WAL record %d: %w", rec.Seq, err)
		}
		e.pending = append(e.pending, rec.Batch)
		e.pendingRows += rec.Batch.NumRows()
		e.retainRecord(rec)
		e.replayedRecords++
		e.replayedRows += rec.Batch.NumRows()
	}
	return nil
}

// retainRecord adds one durable record to the replication window,
// pruning the oldest past the cap. Caller holds e.mu (or, during
// recovery, has exclusive access).
func (e *StorageEngine) retainRecord(rec storage.Record) {
	if e.replCap < 0 {
		return
	}
	e.replLog = append(e.replLog, rec)
	if excess := len(e.replLog) - e.replCap; excess > 0 {
		// Slide instead of re-slicing so the pruned prefix is actually
		// released to the GC rather than pinned by the backing array.
		kept := make([]storage.Record, e.replCap)
		copy(kept, e.replLog[excess:])
		e.replLog = kept
	}
}

// appendWAL is the session's write-ahead hook: durably log the committed
// batch, then remember it for the next checkpoint's segment.
func (e *StorageEngine) appendWAL(table string, rows [][]Value) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errors.New("retro: storage engine is closed")
	}
	seq, err := e.wal.Append(table, rows)
	if err != nil {
		return err
	}
	// The WAL cloned the rows for its own frame; clone again for the
	// in-memory pending list — the caller owns these slices. The
	// replication window shares the same immutable clone.
	b := storage.CloneBatch(table, rows)
	e.pending = append(e.pending, b)
	e.pendingRows += len(rows)
	e.retainRecord(storage.Record{Seq: seq, Batch: b})
	// Wake long-poll replication streams: close-and-replace makes the
	// signal a broadcast every waiter observes exactly once.
	close(e.replNotify)
	e.replNotify = make(chan struct{})
	return nil
}

// Checkpoint captures everything that changed since the last checkpoint
// into a delta segment (or, when the chain is full, a fresh base
// snapshot), rotates the WAL, and atomically installs the new manifest.
// Callers must exclude concurrent inserts for the duration — the
// serving layer holds its write mutex. A checkpoint that finds nothing
// changed returns Skipped without touching the directory.
//
// Failure ordering guarantees: the manifest rename is the commit point.
// Every file the new manifest names is durable before the rename, and
// the old log is deleted only after it; a crash anywhere leaves a
// directory some manifest fully describes, with at worst orphan files
// for the next open to sweep.
func (e *StorageEngine) Checkpoint() (CheckpointStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return CheckpointStats{}, errors.New("retro: storage engine is closed")
	}
	start := time.Now()
	store := e.sess.Model().Store()
	changed := store.ChangedSince(e.lastCkpt)
	if len(changed) == 0 && len(e.pending) == 0 {
		return CheckpointStats{Skipped: true, Epoch: e.lastCkpt}, nil
	}

	newEpoch := store.AdvanceEpoch()
	compact := len(e.man.Segments)+1 > e.maxSegments
	stats := CheckpointStats{Epoch: newEpoch, Compacted: compact, Rows: e.pendingRows, Vectors: len(changed)}

	newMan := &storage.Manifest{Epoch: newEpoch, WALSeq: e.wal.Seq(), Base: e.man.Base}
	var written string // the segment or base this checkpoint produced
	if compact {
		// The chain is long enough that recovery replay cost (and disk
		// footprint) outweighs the delta savings: fold everything into a
		// fresh full base and reset the chain. The base captures the
		// model but not the database rows the old chain carried — those
		// must survive, or recovery (which starts from the original
		// dataset) would come up with a vocabulary the base doesn't
		// match. Merge every chain batch plus the pending tail into one
		// carried-forward rows segment (vectors omitted; the base has
		// them all).
		merged := &storage.Segment{ToEpoch: newEpoch, WALSeq: e.wal.Seq()}
		for _, name := range e.man.Segments {
			seg, err := storage.ReadSegmentFile(filepath.Join(e.dir, name))
			if err != nil {
				return stats, fmt.Errorf("retro: checkpoint: merging segment %s: %w", name, err)
			}
			merged.Batches = append(merged.Batches, seg.Batches...)
		}
		merged.Batches = append(merged.Batches, e.pending...)
		if len(merged.Batches) > 0 {
			segName := storage.SegmentName(newEpoch)
			if err := storage.WriteSegmentFile(filepath.Join(e.dir, segName), merged, e.sys); err != nil {
				return stats, fmt.Errorf("retro: checkpoint: writing merged rows segment: %w", err)
			}
			newMan.Segments = []string{segName}
		}
		newMan.Base = storage.BaseName(newEpoch)
		written = filepath.Join(e.dir, newMan.Base)
		if err := storage.WriteFileAtomic(written, e.sys, e.sess.Snapshot); err != nil {
			if len(newMan.Segments) > 0 {
				os.Remove(filepath.Join(e.dir, newMan.Segments[0]))
			}
			return stats, fmt.Errorf("retro: checkpoint: writing base snapshot: %w", err)
		}
	} else {
		seg := &storage.Segment{
			FromEpoch: e.lastCkpt, ToEpoch: newEpoch, WALSeq: e.wal.Seq(),
			Batches: e.pending,
		}
		if store.Precision() == F32 {
			// Persist float32 words directly: no widening round trip, and
			// half the segment bytes per changed row.
			for _, id := range changed {
				vec := store.Vector32(id)
				cp := make([]float32, len(vec))
				copy(cp, vec)
				seg.Vectors = append(seg.Vectors, storage.VectorDelta{Key: store.Word(id), Vec32: cp})
			}
		} else {
			for _, id := range changed {
				vec := store.Vector(id)
				cp := make([]float64, len(vec))
				copy(cp, vec)
				seg.Vectors = append(seg.Vectors, storage.VectorDelta{Key: store.Word(id), Vec: cp})
			}
		}
		segName := storage.SegmentName(newEpoch)
		written = filepath.Join(e.dir, segName)
		if err := storage.WriteSegmentFile(written, seg, e.sys); err != nil {
			return stats, fmt.Errorf("retro: checkpoint: writing segment: %w", err)
		}
		newMan.Segments = append(append([]string(nil), e.man.Segments...), segName)
	}
	if fi, err := os.Stat(written); err == nil {
		stats.Bytes = fi.Size()
	}

	// Rotate the log before the manifest commit: the new manifest names
	// the new log, so the log must exist (header synced) first.
	undo := func() {
		os.Remove(written)
		if compact && len(newMan.Segments) > 0 {
			os.Remove(filepath.Join(e.dir, newMan.Segments[0]))
		}
	}
	walName := storage.WALName(newEpoch)
	newWAL, err := storage.CreateWAL(filepath.Join(e.dir, walName), e.wal.Seq(), e.sys)
	if err != nil {
		undo()
		return stats, fmt.Errorf("retro: checkpoint: rotating WAL: %w", err)
	}
	newMan.WAL = walName
	if err := storage.WriteManifest(e.dir, newMan, e.sys); err != nil {
		newWAL.Close()
		os.Remove(filepath.Join(e.dir, walName))
		undo()
		return stats, fmt.Errorf("retro: checkpoint: writing manifest: %w", err)
	}

	// Commit point passed: everything below is cleanup and in-memory
	// bookkeeping, safe to lose to a crash.
	oldWAL := e.wal
	oldWAL.Close()
	os.Remove(oldWAL.Path())
	old := oldWAL.Stats()
	e.retired.Appends += old.Appends
	e.retired.Syncs += old.Syncs
	e.retired.SyncNanos += old.SyncNanos
	if compact {
		storage.CleanDir(e.dir, newMan) // old base + chain are now orphans
		e.compactions++
	}
	e.wal, e.man, e.lastCkpt = newWAL, newMan, newEpoch
	e.pending, e.pendingRows = nil, 0
	e.checkpoints++
	stats.Duration = time.Since(start)
	e.lastStats = stats
	return stats, nil
}

// Session returns the live session backed by this engine.
func (e *StorageEngine) Session() *Session { return e.sess }

// Dir returns the data directory.
func (e *StorageEngine) Dir() string { return e.dir }

// Manifest returns a copy of the current manifest.
func (e *StorageEngine) Manifest() storage.Manifest {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := *e.man
	m.Segments = append([]string(nil), e.man.Segments...)
	return m
}

// --- replication surface ---------------------------------------------------
//
// A primary exposes these to internal/repl's HTTP handler; everything is
// safe to call concurrently with inserts and checkpoints.

// WALSeq returns the sequence number of the last durable WAL record.
func (e *StorageEngine) WALSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.wal.Seq()
}

// WALNotify returns a channel closed at the next durable append. Callers
// re-arm by calling it again after the close; a long-poll stream selects
// on it against its deadline.
func (e *StorageEngine) WALNotify() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replNotify
}

// RecordsSince returns up to max retained records with seq > from, plus
// the current WAL high-water mark. ok reports whether from is still
// inside the replication window: false means the records a follower
// would need have been pruned (it sat disconnected across checkpoints or
// a compaction) — or the follower claims a seq the primary never wrote
// (divergent history) — and it must fall back to a full re-sync.
func (e *StorageEngine) RecordsSince(from uint64, max int) (recs []storage.Record, lastSeq uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lastSeq = e.wal.Seq()
	if from > lastSeq {
		return nil, lastSeq, false
	}
	if from == lastSeq {
		return nil, lastSeq, true
	}
	winStart := lastSeq + 1
	if len(e.replLog) > 0 {
		winStart = e.replLog[0].Seq
	}
	if from+1 < winStart {
		return nil, lastSeq, false
	}
	idx := int(from + 1 - winStart)
	tail := e.replLog[idx:]
	if max > 0 && len(tail) > max {
		tail = tail[:max]
	}
	// Copy the slice header region so callers iterate a stable snapshot
	// while appends keep growing (and pruning) the window. The batches
	// themselves are immutable after commit.
	recs = make([]storage.Record, len(tail))
	copy(recs, tail)
	return recs, lastSeq, true
}

// ReplicationState returns a copy of the current manifest plus the WAL
// high-water mark, the unit a follower needs to bootstrap: download the
// named base and segments, then tail from WALSeq.
func (e *StorageEngine) ReplicationState() (storage.Manifest, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := *e.man
	m.Segments = append([]string(nil), e.man.Segments...)
	return m, e.wal.Seq()
}

// OpenReplicaFile opens a file for shipping to a bootstrapping replica.
// Only files the current manifest references are served — the base
// snapshot and the segment chain; never the live WAL (its content
// travels over the record stream) and never an arbitrary path. Opening
// under the engine mutex makes the check atomic against a concurrent
// compaction deleting the file.
func (e *StorageEngine) OpenReplicaFile(name string) (*os.File, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ok := name == e.man.Base
	for _, s := range e.man.Segments {
		ok = ok || name == s
	}
	if !ok {
		return nil, fmt.Errorf("retro: %q is not referenced by the current manifest", name)
	}
	return os.Open(filepath.Join(e.dir, name))
}

// Stats returns a point-in-time summary. Safe to call concurrently with
// inserts (the engine mutex covers the log counters).
func (e *StorageEngine) Stats() StorageStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	wal := e.wal.Stats()
	wal.Appends += e.retired.Appends
	wal.Syncs += e.retired.Syncs
	wal.SyncNanos += e.retired.SyncNanos
	return StorageStats{
		Dir:             e.dir,
		Epoch:           e.man.Epoch,
		Segments:        len(e.man.Segments),
		PendingRows:     e.pendingRows,
		WAL:             wal,
		Checkpoints:     e.checkpoints,
		Compactions:     e.compactions,
		ReplayedRecords: e.replayedRecords,
		ReplayedRows:    e.replayedRows,
		WALTruncated:    e.walTruncated,
		LastCheckpoint:  e.lastStats,
	}
}

// Close syncs and closes the log. It does NOT checkpoint — callers that
// want a clean shutdown with an empty replay tail run Checkpoint first
// (everything in the log is recovered either way). The session stops
// accepting writes.
func (e *StorageEngine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	return e.wal.Close()
}
