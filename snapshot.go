package retro

import (
	"fmt"
	"io"
	"time"

	"github.com/retrodb/retro/internal/deepwalk"
	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/snapshot"
	"github.com/retrodb/retro/internal/tokenize"
)

// Snapshot persistence. A trained model (or live session) serialises to a
// single versioned binary artifact — the retrofitted store, the built
// HNSW graph and the training provenance — so a serving process can
// cold-start by loading state instead of re-running retrofitting and
// rebuilding the index. See internal/snapshot for the wire format.

// SnapshotFormatVersion is the snapshot format version this build reads
// and writes.
const SnapshotFormatVersion = snapshot.Version

// SnapshotInfo summarises a loaded snapshot's header and provenance.
type SnapshotInfo struct {
	// Version is the format version of the file.
	Version uint32
	// Dim is the embedding dimensionality.
	Dim int
	// NumValues is the number of embedded text values.
	NumValues int
	// Created is when the snapshot was written.
	Created time.Time
	// Fingerprint hashes dim, solver variant and hyperparameters;
	// snapshots from identical training configurations share it.
	Fingerprint uint64
	// HasIndex reports whether the file carried a built HNSW graph.
	HasIndex bool
	// Quantization is the persisted ANN candidate-generation mode
	// (QuantOff when the snapshot carried no quantization sidecar) and
	// Rerank its candidate over-fetch factor.
	Quantization string
	Rerank       int
	// Precision is the persisted store representation (F64 for snapshots
	// written before format version 3).
	Precision Precision
	// Variant is the solver that produced the vectors.
	Variant Variant
	// Hyperparams is the training configuration.
	Hyperparams Hyperparams
	// Categories lists the "table.column" text keys the model covers.
	Categories []string
	// ExcludeColumns / ExcludeRelations are the extraction exclusions the
	// model was trained with (persisted so ResumeSession re-extracts the
	// same vocabulary).
	ExcludeColumns   []string
	ExcludeRelations []string
}

// WriteSnapshot serialises the model: the retrofitted store (float32
// packed), the built HNSW index if one exists (call Store().WarmANN()
// first to guarantee it is included), and the training provenance. The
// caller must not mutate the model concurrently.
func (m *Model) WriteSnapshot(w io.Writer) error {
	// The configured quantization persists even when no built index does
	// (e.g. the index was stale at save time): a reboot from the snapshot
	// must come back up quantized, codes retrained lazily.
	quantMode, rerank := m.store.Quantization()
	return snapshot.Write(w, &snapshot.Snapshot{
		Dim:              m.store.Dim(),
		Variant:          m.cfg.Variant,
		Hyperparams:      m.hp,
		CreatedUnix:      time.Now().Unix(),
		LossHistory:      m.lossHT,
		Categories:       m.categories(),
		ExcludeColumns:   m.cfg.ExcludeColumns,
		ExcludeRelations: m.cfg.ExcludeRelations,
		ANNThreshold:     m.store.ANNThreshold(),
		ANNParams:        m.store.ANNParams(),
		Quantization:     quantMode,
		Rerank:           rerank,
		Store:            m.store,
		Index:            m.store.ANNIndex(),
	})
}

// LoadSnapshot deserialises a model written by WriteSnapshot. The result
// answers Vector, Key, Neighbors and Store queries — including ANN
// search, with no index rebuild when the snapshot carried the graph —
// without any database attached; use ResumeSession to reattach one for
// incremental maintenance.
func LoadSnapshot(r io.Reader) (*Model, error) {
	snap, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	hp := snap.Hyperparams
	cfg := Config{
		Variant:          snap.Variant,
		Hyperparams:      &hp,
		TrackLoss:        len(snap.LossHistory) > 0,
		ExcludeColumns:   snap.ExcludeColumns,
		ExcludeRelations: snap.ExcludeRelations,
	}
	if snap.ANNThreshold > 0 {
		cfg.ANNThreshold = snap.ANNThreshold
	} else {
		cfg.ANNThreshold = -1
	}
	annParams := snap.ANNParams
	cfg.ANNParams = &annParams
	// Carry the persisted quantization into the config: the loaded store
	// is already quantized (codes came from the QNT8 section), and any
	// path that rebuilds the store (e.g. ResumeSession realignment)
	// re-quantizes with freshly trained codes.
	cfg.Quantization = snap.Quantization
	cfg.RerankFactor = snap.Rerank
	// The model comes back at the precision it was persisted with; any
	// store rebuild (e.g. ResumeSession realignment) keeps it.
	cfg.Precision = snap.Precision
	return &Model{
		cfg:    cfg,
		hp:     hp,
		store:  snap.Store,
		lossHT: snap.LossHistory,
		cats:   snap.Categories,
		snap:   infoFrom(snap),
	}, nil
}

func infoFrom(snap *snapshot.Snapshot) *SnapshotInfo {
	return &SnapshotInfo{
		Version:          snap.Version,
		Dim:              snap.Dim,
		NumValues:        snap.NumValues,
		Created:          time.Unix(snap.CreatedUnix, 0),
		Fingerprint:      snap.Fingerprint,
		HasIndex:         snap.HasIndex,
		Variant:          snap.Variant,
		Hyperparams:      snap.Hyperparams,
		Categories:       snap.Categories,
		ExcludeColumns:   snap.ExcludeColumns,
		ExcludeRelations: snap.ExcludeRelations,
		Quantization:     snap.Quantization,
		Rerank:           snap.Rerank,
		Precision:        snap.Precision,
	}
}

// SnapshotInfo returns the provenance of a snapshot-loaded model, or nil
// when the model was trained in-process.
func (m *Model) SnapshotInfo() *SnapshotInfo { return m.snap }

// ReadSnapshotInfo returns a snapshot's summary. Every section checksum
// is verified, but the store and HNSW graph are not materialised, so it
// stays cheap on arbitrarily large snapshots.
func ReadSnapshotInfo(r io.Reader) (*SnapshotInfo, error) {
	snap, err := snapshot.ReadInfo(r)
	if err != nil {
		return nil, err
	}
	return infoFrom(snap), nil
}

// WriteSnapshotFile persists the session's snapshot to path atomically
// (temp file + fsync + rename in the target directory), so a crash or
// disk-full mid-write never leaves a truncated file where a boot path
// expects a valid snapshot.
func (s *Session) WriteSnapshotFile(path string) error {
	return snapshot.WriteFileAtomic(path, s.Snapshot)
}

// Snapshot serialises the session's current model. Callers serving
// concurrent traffic must hold their write lock (or otherwise exclude
// inserts) for the duration.
func (s *Session) Snapshot(w io.Writer) error { return s.model.WriteSnapshot(w) }

// ResumeSession rebuilds a live session from a snapshot plus the database
// and base embedding it was trained on: the expensive solver state and
// the HNSW graph come from the snapshot, while the relational side is
// re-attached so Insert and InsertBatch keep maintaining the embeddings
// incrementally. The database must be in the same state as
// when the snapshot was written; a vocabulary mismatch is an error.
func ResumeSession(db *DB, base *Embedding, r io.Reader) (*Session, error) {
	m, err := LoadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return resumeModel(db, base, m)
}

// resumeModel attaches a snapshot-loaded model to a database and base
// embedding and returns the live session. The storage engine uses it
// directly: recovery loads the base snapshot, applies the delta segment
// chain to the database and store, and only then re-attaches — so the
// vocabulary check runs against the fully recovered state.
func resumeModel(db *DB, base *Embedding, m *Model) (*Session, error) {
	if base.Dim() != m.store.Dim() {
		return nil, fmt.Errorf("retro: snapshot dim %d does not match base embedding dim %d", m.store.Dim(), base.Dim())
	}
	ex, err := extract.FromDB(db, extract.Options{
		ExcludeColumns:   m.cfg.ExcludeColumns,
		ExcludeRelations: m.cfg.ExcludeRelations,
	})
	if err != nil {
		return nil, err
	}
	if ex.NumValues() != m.store.Len() {
		return nil, fmt.Errorf("retro: snapshot has %d values but database extracts %d: database changed since the snapshot was written (retrain or re-snapshot)",
			m.store.Len(), ex.NumValues())
	}
	aligned := true
	for _, v := range ex.Values {
		key := deepwalk.ValueKey(ex, v.ID)
		id, ok := m.store.ID(key)
		if !ok {
			cat := ex.Categories[v.Category].Name()
			return nil, fmt.Errorf("retro: snapshot is missing value %q in %s: database changed since the snapshot was written", v.Text, cat)
		}
		if id != v.ID {
			aligned = false
		}
	}
	if !aligned {
		// The incremental write path requires store row ids to mirror
		// extraction value ids. A snapshot written before any writes is
		// stored in extraction order and stays aligned; one written after
		// incremental inserts holds the written values in write order,
		// while the fresh extraction numbers them column-major. Rebuild
		// the store in extraction order. A loaded HNSW graph indexes the
		// same rows under the old ids, so it is relabelled and kept.
		ns := NewEmbeddingWithPrecision(m.store.Dim(), m.store.Precision())
		applyANNConfig(ns, m.cfg)
		for _, v := range ex.Values {
			key := deepwalk.ValueKey(ex, v.ID)
			vec, _ := m.store.VectorOf(key)
			ns.Add(key, vec)
		}
		if idx := m.store.ANNIndex(); idx != nil {
			if err := adoptByKey(ns, idx, m.store.Words()); err != nil {
				return nil, fmt.Errorf("retro: relabelling the snapshot's graph: %w", err)
			}
		}
		m.store = ns
	}
	m.db, m.base, m.ex, m.tok = db, base, ex, tokenize.New(base)
	return &Session{db: db, base: base, cfg: m.cfg, model: m, Hops: 2, RepairBudget: DefaultRepairBudget}, nil
}
