package retro

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/retrodb/retro/internal/core"
	"github.com/retrodb/retro/internal/deepwalk"
	"github.com/retrodb/retro/internal/extract"
	"github.com/retrodb/retro/internal/tokenize"
	"github.com/retrodb/retro/internal/vec"
)

// DefaultRepairBudget bounds how many nodes one incremental repair
// re-solves (see Session.RepairBudget).
const DefaultRepairBudget = 512

// Session couples a database with a live retrofitted model and maintains
// the model incrementally as rows are inserted — the §1 property that
// RETRO "does not rely on re-training, which allows us to incrementally
// maintain the word vectors whenever the data in the database changes".
//
// The write path is proportional to the change, not the database: an
// insert extracts only the new row's values and relations
// (extract.ApplyInserts), grows the learning problem in place
// (core.GrowProblem) and re-solves only the new values' bounded
// neighbourhood against maintained solver state, so the per-row cost
// stays flat as the database grows. InsertBatch amortises one repair
// over many rows. Insert and InsertBatch are the session's only write
// path — the one the write-ahead log records and followers replay — and
// Resolve, a full re-solve, its only recovery: a session whose repair
// failed (Stale) runs it on the next write.
//
// Insert and InsertBatch update the embedding store (and
// any built ANN index) in place, and previously obtained Models share
// that store. Callers that query a Model concurrently with inserts must
// either synchronise the two with a lock, or — as internal/server does —
// serve reads from an immutable Embedding.Freeze snapshot republished
// after each write, in which case the store's copy-on-write discipline
// keeps every published snapshot stable with no read-side lock at all.
// A held Model stays queryable across inserts but is not a frozen
// snapshot. The session owns the store's vectors — mutating them
// externally (NormalizeAll, Matrix writes) invalidates the maintained
// repair state.
//
// A session's trained state can be persisted with Snapshot and restored
// with ResumeSession (see snapshot.go): the resumed session keeps the
// deserialised HNSW index and continues incremental maintenance exactly
// where the writing process left off.
type Session struct {
	db    *DB
	base  *Embedding
	cfg   Config
	model *Model

	// Hops bounds how far a change propagates during local repair
	// (default 2 relation hops).
	Hops int
	// RepairBudget caps how many nodes one repair re-solves (default
	// DefaultRepairBudget; 0 = unlimited). Inserted values are always
	// re-solved; the budget only bounds how far their influence is
	// chased — without it, a single insert touching a high-degree hub
	// value (a language, a country) would re-solve most of the database
	// and the write path would degrade to O(n) again.
	RepairBudget int

	// incState carries the per-group target sums the repair kernels need
	// (rebuilt lazily after Resolve or a snapshot resume).
	incState *core.IncrementalState
	// mirror is the float64 solver matrix for a float32 store: the
	// incremental kernels read and write float64 rows, so on an F32
	// store the session maintains this widened mirror and rounds each
	// repaired row back through Store.SetVector (one rounding, at the
	// store boundary). Outside a repair, every mirror row equals the
	// widened store row. Nil on F64 stores; reset with incState.
	mirror *vec.Matrix
	// stale records a failed repair: the model no longer reflects every
	// committed row, so the next write falls back to a full re-solve.
	// Atomic so serving stats can read it without excluding writers;
	// every other Session field still requires external synchronisation.
	stale atomic.Bool
	// repairHook, when set, runs before each incremental repair; a test
	// seam for forcing repair failures.
	repairHook func() error

	// walAppend, when set by the storage engine, durably logs each
	// committed insert batch before the embedding repair runs. It
	// receives only the committed rows — a BatchError-rejected row is
	// never logged, so it can never reappear on replay. A failure is
	// reported as *WALError and marks the session stale: the rows are in
	// the in-memory database but their durability is unknown.
	walAppend func(table string, rows [][]Value) error

	// lastRepair describes the most recent maintenance pass. Written by
	// the repair paths and read by LastRepair; like the rest of the
	// session it requires external synchronisation (the serving layer
	// reads it under its write mutex, right after the insert it timed).
	lastRepair RepairStats
}

// RepairStats describes one embedding-maintenance pass: how long it
// took, how much of the model it re-solved, and whether it was the
// incremental delta path or a full re-solve. The serving layer exports
// these as repair-duration and affected-node metrics.
type RepairStats struct {
	Duration time.Duration // wall time of the repair
	// Solve and Index split a delta repair's Duration in two: working out
	// the new vectors (delta extraction, problem growth, staging the new
	// rows, the incremental solve), then writing them back (store rows,
	// norm cache, and each touched row's ANN node — moved in place, and
	// re-linked only when its SQ8 code changed, or always on an
	// unquantized index; see Relinked). Both are zero for a full re-solve,
	// which rebuilds the store instead of updating it.
	Solve   time.Duration
	Index   time.Duration
	Touched int // nodes re-solved (0 when the delta carried no values)
	// Relinked counts the touched rows whose ANN links the write-back
	// recomputed: new values and moved ones past the index's gate. It is
	// at most Touched, and 0 when no built index was maintained (none
	// yet, or the repair covered enough of the vocabulary to invalidate
	// it for a rebuild).
	Relinked int
	NewNodes int  // values added to the vocabulary by the pass
	Full     bool // true for a full re-solve, false for a delta repair
}

// LastRepair returns stats for the most recent repair or re-solve.
// Callers must synchronise with writers the same way as for Insert.
func (s *Session) LastRepair() RepairStats { return s.lastRepair }

// NewSession trains the initial model and returns the live session.
func NewSession(db *DB, base *Embedding, cfg Config) (*Session, error) {
	model, err := Retrofit(db, base, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{db: db, base: base, cfg: cfg, model: model, Hops: 2, RepairBudget: DefaultRepairBudget}, nil
}

// Model returns the current model.
func (s *Session) Model() *Model { return s.model }

// DB returns the session's database.
func (s *Session) DB() *DB { return s.db }

// Stale reports whether a repair failure left the model behind the
// database. A stale session still answers queries from its last good
// state; the next successful write (which performs a full re-solve) or
// an explicit Resolve clears it.
func (s *Session) Stale() bool { return s.stale.Load() }

// MarkStale forces the next write to run a full re-solve instead of an
// incremental repair, as if a repair had failed. Operators can use it to
// schedule a re-sync without blocking on an immediate Resolve.
func (s *Session) MarkStale() { s.stale.Store(true) }

// RepairError reports that a row was committed to the database but the
// subsequent embedding repair failed: the model is now stale relative to
// the data (Stale reports true) until a later write or Resolve succeeds.
// Callers should not treat it as "nothing happened" — retrying the same
// insert will hit a duplicate-key error.
type RepairError struct{ Err error }

func (e *RepairError) Error() string {
	return fmt.Sprintf("retro: row stored but embedding repair failed: %v", e.Err)
}

func (e *RepairError) Unwrap() error { return e.Err }

// WALError reports that rows were committed to the in-memory database
// but the write-ahead log failed to make them durable: the write must
// not be acknowledged, and the session is marked stale (the embedding
// repair was skipped). After a WALError the in-memory state may be
// ahead of what a restart recovers.
type WALError struct{ Err error }

func (e *WALError) Error() string {
	return fmt.Sprintf("retro: rows committed but write-ahead log failed: %v", e.Err)
}

func (e *WALError) Unwrap() error { return e.Err }

// BatchError reports a batch that failed part-way: rows before Index
// were committed (and repaired), the row at Index was rejected, and
// nothing after it was attempted.
type BatchError struct {
	Committed int   // rows stored before the failure
	Index     int   // index of the rejected row within the batch
	Err       error // why that row was rejected
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("retro: batch row %d rejected after %d rows were committed: %v", e.Index, e.Committed, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// Insert adds a row (column order) to a table and incrementally repairs
// the embeddings: the new row's values and relations are appended to the
// learning problem and only they plus their bounded Hops-hop
// neighbourhood are re-solved with everything else held fixed.
// A failure after the row was committed is reported as *RepairError.
func (s *Session) Insert(table string, row []Value) error {
	id, err := s.db.Insert(table, row)
	if err != nil {
		return err
	}
	if s.walAppend != nil {
		if err := s.walAppend(table, [][]Value{row}); err != nil {
			s.stale.Store(true)
			return &WALError{Err: err}
		}
	}
	if err := s.refreshRows(table, []int{id}); err != nil {
		s.stale.Store(true)
		return &RepairError{Err: err}
	}
	return nil
}

// InsertBatch commits the rows (column order) to a table and runs ONE
// incremental repair over the union of their neighbourhoods — one
// problem growth, one re-solve, one pass of index maintenance — instead
// of the per-row repair N separate Inserts would pay. Rows are committed
// in order; the first invalid row stops the batch and is reported as
// *BatchError with the preceding rows committed and repaired. A repair
// failure after any rows were committed is reported as *RepairError.
func (s *Session) InsertBatch(table string, rows [][]Value) error {
	if len(rows) == 0 {
		return nil
	}
	rowIDs := make([]int, 0, len(rows))
	var rejected *BatchError
	for idx, row := range rows {
		id, err := s.db.Insert(table, row)
		if err != nil {
			if len(rowIDs) == 0 {
				return &BatchError{Committed: 0, Index: idx, Err: err}
			}
			rejected = &BatchError{Committed: len(rowIDs), Index: idx, Err: err}
			break
		}
		rowIDs = append(rowIDs, id)
	}
	if s.walAppend != nil && len(rowIDs) > 0 {
		// Log exactly the committed prefix: a rejected row must never
		// replay, and rows after it were never attempted.
		if err := s.walAppend(table, rows[:len(rowIDs)]); err != nil {
			s.stale.Store(true)
			if rejected != nil {
				return &WALError{Err: errors.Join(err, rejected)}
			}
			return &WALError{Err: err}
		}
	}
	if err := s.refreshRows(table, rowIDs); err != nil {
		s.stale.Store(true)
		if rejected != nil {
			// Keep the rejection visible through errors.As alongside the
			// repair failure.
			return &RepairError{Err: errors.Join(err, rejected)}
		}
		return &RepairError{Err: err}
	}
	if rejected != nil {
		return rejected
	}
	return nil
}

// refreshRows repairs the model after rows were committed to table.
// A stale session cannot repair from a delta — its extraction baseline
// no longer matches the database — so it re-solves from scratch, which
// also clears the staleness.
func (s *Session) refreshRows(table string, rowIDs []int) error {
	if len(rowIDs) == 0 {
		return nil
	}
	if s.repairHook != nil {
		if err := s.repairHook(); err != nil {
			return err
		}
	}
	if s.stale.Load() {
		return s.Resolve()
	}
	return s.repairDelta(table, rowIDs)
}

// repairDelta is the O(delta) write path: extract only the new rows,
// grow the problem in place, and re-solve the bounded neighbourhood.
func (s *Session) repairDelta(table string, rowIDs []int) error {
	start := time.Now()
	m := s.model
	if m.ex == nil {
		return fmt.Errorf("retro: session model has no extraction attached")
	}
	if m.tok == nil {
		m.tok = tokenize.New(s.base)
	}
	if m.prob == nil {
		// Snapshot-resumed session: materialise the problem once; every
		// later insert grows it in place.
		m.prob = core.BuildProblem(m.ex, m.tok)
	}
	if s.incState == nil {
		if m.store.Len() != m.prob.N {
			return fmt.Errorf("retro: store holds %d vectors but problem has %d nodes", m.store.Len(), m.prob.N)
		}
		s.incState = core.NewIncrementalState(m.prob, s.solverMatrix(m.store))
	}

	d, err := m.ex.ApplyInserts(s.db, table, rowIDs, extract.Options{
		ExcludeColumns:   s.cfg.ExcludeColumns,
		ExcludeRelations: s.cfg.ExcludeRelations,
	})
	if err != nil {
		return err
	}
	if d.Empty() {
		// Row carried no text values and no relations: nothing to repair.
		took := time.Since(start)
		s.lastRepair = RepairStats{Duration: took, Solve: took}
		return nil
	}
	rep, err := core.GrowProblem(m.prob, m.ex, m.tok, d)
	if err != nil {
		return err
	}

	// New values enter the store with their W0 initialisation; store row
	// ids must mirror problem node ids (the repair writes through the
	// shared matrix). Registration with the ANN index and norm cache is
	// staged: every new node is in the repair's touched set, so the
	// RefreshRow pass below indexes the FINAL vector once instead of
	// beam-inserting the provisional W0 row only to move it.
	store := m.store
	// The repair below writes re-solved vectors straight into the store
	// matrix. Detach it from any published Freeze snapshot first
	// (copy-on-write), or those in-place writes would tear the frozen
	// read views the serving layer hands to lock-free queries.
	store.PrepareWrite()
	for _, id := range rep.NewNodes {
		key := deepwalk.ValueKey(m.ex, id)
		if got := store.AddStaged(key, m.prob.W0.Row(id)); got != id {
			return fmt.Errorf("retro: store row %d for new value %d: vocabulary misaligned", got, id)
		}
	}
	// On an F32 store the kernels repair the session's float64 mirror
	// (grown here to cover the staged rows); on F64 they write the store
	// matrix in place.
	w := s.solverMatrix(store)
	s.incState.Grow(m.prob, w, rep)

	touched := core.AffectedNodesBudget(m.prob, rep.Seeds, s.Hops, s.RepairBudget)
	m.prob.RefreshCentroids(touched)
	core.UpdateIncremental(m.prob, w, s.incState, touched, m.hp, s.cfg.Variant, core.IncrementalOptions{})
	solved := time.Now()

	// Fold the repaired rows into the store's derived state. When the
	// repair covered most of the vocabulary, one index rebuild replaces a
	// beam-search re-link per value.
	if len(touched)*2 >= store.Len() {
		store.InvalidateANN()
	}
	linked := annLinked(store)
	for _, id := range touched {
		if s.mirror != nil {
			// Round the repaired float64 row into the float32 store; the
			// store refreshes the norm cache and ANN node itself.
			store.SetVector(id, s.mirror.Row(id))
		} else {
			store.RefreshRow(id)
		}
	}
	done := time.Now()
	relinked := 0
	if after := annLinked(store); after > linked {
		relinked = int(after - linked)
	}
	s.lastRepair = RepairStats{
		Duration: done.Sub(start),
		Solve:    solved.Sub(start),
		Index:    done.Sub(solved),
		Touched:  len(touched),
		Relinked: relinked,
		NewNodes: len(rep.NewNodes),
	}
	return nil
}

// annLinked reads the running link count of the store's maintained index
// (0 when it has none). The count survives the clone a frozen view forces
// on the first write after it, so two reads around a write-back differ by
// the links it made — unless the index went stale in between, when the
// second read is 0 and the links went into a graph that is being thrown
// away.
func annLinked(store *Embedding) uint64 {
	if idx := store.ANNIndex(); idx != nil {
		return idx.Linked()
	}
	return 0
}

// solverMatrix returns the float64 matrix the incremental kernels bind
// to: the store's own matrix on an F64 store, or the session-held
// widened mirror on an F32 store. The mirror is built on first use and
// grown here whenever the store gained rows (staged inserts); new
// mirror rows are widened from the store, so outside a repair the
// mirror is exactly the store seen in float64.
func (s *Session) solverMatrix(store *Embedding) *vec.Matrix {
	if store.Precision() != F32 {
		return store.Matrix()
	}
	if s.mirror == nil {
		s.mirror = vec.NewMatrix(0, store.Dim())
	}
	if from := s.mirror.Rows; from < store.Len() {
		s.mirror.GrowRows(store.Len())
		for id := from; id < store.Len(); id++ {
			vec.Widen(s.mirror.Row(id), store.Vector32(id))
		}
	}
	return s.mirror
}

// replaceModel swaps in a rebuilt model and resets the per-model repair
// state (the incremental state binds to one problem/store pair). A
// rebuilt store starts at change epoch 0 with no per-row history; if the
// old store was further along (a storage engine is checkpointing this
// session), the epoch is carried over and every row conservatively
// stamped as changed — the next checkpoint then captures the whole
// rebuilt vocabulary instead of silently dropping it from the delta.
func (s *Session) replaceModel(m *Model) {
	if old := s.model; old != nil && old.store != m.store && m.store.Epoch() < old.store.Epoch() {
		m.store.SetEpoch(old.store.Epoch())
		m.store.StampAll()
	}
	s.model = m
	s.incState = nil
	s.mirror = nil
	s.stale.Store(false)
}

// Resolve runs a full re-solve from scratch (the non-incremental path),
// replacing the model and clearing any staleness. Useful after bulk
// loads.
func (s *Session) Resolve() error {
	start := time.Now()
	model, err := Retrofit(s.db, s.base, s.cfg)
	if err != nil {
		return fmt.Errorf("retro: full re-solve: %w", err)
	}
	s.replaceModel(model)
	s.lastRepair = RepairStats{
		Duration: time.Since(start),
		Touched:  model.store.Len(),
		Full:     true,
	}
	return nil
}
