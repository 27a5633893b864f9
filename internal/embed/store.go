// Package embed implements the word embedding store RETRO retrofits
// against: a vocabulary mapped to dense vectors, with serialisation,
// nearest-neighbour queries and the concatenation combiner of §4.6.
package embed

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/retrodb/retro/internal/ann"
	"github.com/retrodb/retro/internal/vec"
)

// DefaultANNThreshold is the vocabulary size at which TopK switches from
// the exact scan to the HNSW index. Below it brute force is already fast
// and exact; above it the graph wins by orders of magnitude.
const DefaultANNThreshold = 4096

// Quantization modes for ANN candidate generation (see EnableQuantization).
const (
	// QuantOff traverses the HNSW graph on exact float64 distances.
	QuantOff = "off"
	// QuantSQ8 traverses on 8-bit scalar-quantized codes (8x less memory
	// traffic per hop) and re-scores the over-fetched candidates exactly
	// in float64 before returning.
	QuantSQ8 = "sq8"
)

// ParseQuantMode normalises a user-facing quantization mode string
// ("", "off", "none" select QuantOff; "sq8" selects QuantSQ8).
func ParseQuantMode(s string) (string, error) {
	switch s {
	case "", "off", "none":
		return QuantOff, nil
	case QuantSQ8:
		return QuantSQ8, nil
	}
	return "", fmt.Errorf("embed: unknown quantization mode %q (use off or sq8)", s)
}

// Precision selects the in-memory representation of the store's vectors.
// The zero value is F64, the historical representation, so existing
// callers are unaffected.
//
// An F32 store holds its matrix, row-norm cache and ANN graph rows as
// float32 — half the resident bytes and half the memory traffic per
// distance evaluation — while every score is still accumulated in
// float64 (see vec.Dot32), keeping serving results within ~1e-6 of the
// float64 pipeline on the same float32-rounded data. The float64 API is
// unchanged: vectors go in as []float64 and are rounded once at the
// store boundary; Vector/VectorOf return widened copies.
type Precision uint8

const (
	// F64 stores vectors as float64 (the default).
	F64 Precision = iota
	// F32 stores vectors as float32 with float64 score accumulation.
	F32
)

func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// Bytes returns the bytes per stored value.
func (p Precision) Bytes() int {
	if p == F32 {
		return 4
	}
	return 8
}

// ParsePrecision normalises a user-facing precision string. The empty
// string selects F64 so zero-valued configs keep their meaning.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "float64", "double":
		return F64, nil
	case "f32", "float32", "single":
		return F32, nil
	}
	return F64, fmt.Errorf("embed: unknown precision %q (use f32 or f64)", s)
}

// Store holds an embedding matrix with a string vocabulary. Rows of the
// matrix correspond 1:1 to vocabulary entries.
//
// Reads (TopK, Analogy, Vector lookups) are safe to run concurrently with
// each other — including the lazy ANN index build, which is serialised
// internally. Mutations (Add, SetVector, NormalizeAll, ...) require
// external synchronisation against reads and other writes.
//
// For fully lock-free concurrent reads, Freeze returns an immutable
// snapshot that shares storage with the live store under a copy-on-write
// discipline: the first mutation after a Freeze copies whatever piece of
// state the snapshot still shares (matrix, vocabulary index, norm cache,
// ANN graph) before touching it, so a frozen snapshot is never perturbed.
// This is how the serving layer publishes read views that queries run
// against without any lock while inserts mutate the live store.
type Store struct {
	dim   int
	words []string
	index map[string]int

	// Exactly one of matrix/matrix32 is populated, per precision. Every
	// mutator and scan branches through the precision-aware helpers
	// (setRow, computeNorm, rowWide, ...) so the copy-on-write and epoch
	// machinery is shared between the representations.
	precision Precision
	matrix    *vec.Matrix   // F64 rows
	matrix32  *vec.Matrix32 // F32 rows

	// frozen marks an immutable Freeze snapshot: mutators panic, and the
	// query paths read derived state (norms, ANN index) without locking
	// because Freeze materialised it up front.
	frozen bool

	// shared* record which pieces of state the most recent Freeze
	// snapshot still shares with this live store. The corresponding cow*
	// helper copies the piece and clears the flag on the first mutation
	// after a freeze; appends past the frozen length don't count (a
	// snapshot never reads beyond the row/word count it was frozen at).
	sharedMatrix bool
	sharedIndex  bool
	sharedNorms  bool
	sharedANN    bool

	// Approximate-search state. The HNSW index is built lazily on the
	// first TopK at or above annThreshold and maintained incrementally by
	// Add/SetVector; wholesale mutations mark it stale instead.
	annMu        sync.Mutex
	annIndex     *ann.Index
	annStale     bool
	annParams    ann.Params
	annThreshold int

	// Configured quantization for the ANN index (QuantOff or QuantSQ8,
	// with the candidate over-fetch factor). The built index is brought
	// in line lazily by ensureANN — under the same copy-on-write
	// discipline as every other index mutation, so frozen snapshots keep
	// serving their own (un)quantized graph untouched.
	quantMode   string
	quantRerank int

	// Cached L2 row norms for the exact scan: built lazily on the first
	// TopKExact and maintained by Add/SetVector/NormalizeAll/RefreshRow,
	// so the hot path stops recomputing every norm per query. An F32
	// store keeps the cache as float32 (norms32); an F64 store as
	// float64 (norms) — only one is ever populated.
	normMu  sync.Mutex
	norms   []float64
	norms32 []float32

	// wbuf is a widening scratch row for the ANN maintenance paths of an
	// F32 store (ann.Index.Insert takes []float64). It is only touched
	// under annMu.
	wbuf []float64

	// Epoch stamping for the storage engine's delta checkpoints: every
	// mutator stamps the touched row with the store's current epoch, so
	// "rows changed since epoch E" (ChangedSince) is an O(n) scan over
	// one uint64 per row instead of a diff of two matrices. The stamps
	// are maintained by writers and read under the same external
	// synchronisation as every other mutation; Freeze snapshots do not
	// carry them (a frozen view is never checkpointed directly).
	epoch     uint64
	rowEpochs []uint64
}

// NewStore creates an empty float64 store for vectors of the given
// dimensionality. ANN search is enabled by default at
// DefaultANNThreshold.
func NewStore(dim int) *Store {
	return NewStoreWithPrecision(dim, F64)
}

// NewStoreWithPrecision creates an empty store with the given vector
// representation (see Precision). The precision is fixed for the
// store's lifetime.
func NewStoreWithPrecision(dim int, p Precision) *Store {
	if dim <= 0 {
		panic(fmt.Sprintf("embed: non-positive dimension %d", dim))
	}
	if p != F64 && p != F32 {
		panic(fmt.Sprintf("embed: invalid precision %d", p))
	}
	return &Store{
		dim:          dim,
		precision:    p,
		index:        make(map[string]int),
		annParams:    ann.DefaultParams(),
		annThreshold: DefaultANNThreshold,
	}
}

// Dim returns the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// Precision returns the store's vector representation.
func (s *Store) Precision() Precision { return s.precision }

// Len returns the vocabulary size.
func (s *Store) Len() int { return len(s.words) }

// Frozen reports whether this store is an immutable Freeze snapshot.
func (s *Store) Frozen() bool { return s.frozen }

// mutable panics when a mutator is invoked on a frozen snapshot; the
// serving layer depends on snapshots never changing underneath readers.
func (s *Store) mutable(op string) {
	if s.frozen {
		panic("embed: " + op + " on a frozen store snapshot")
	}
}

// Freeze returns an immutable snapshot of the store. The snapshot answers
// every read (Vector, ID, TopK, TopKExact, Analogy) without taking any
// lock: derived state — the row-norm cache and, where the vocabulary
// size warrants it, the HNSW index — is materialised here, up front, so
// no read ever builds anything lazily.
//
// The snapshot shares storage with the live store; the live store's
// first mutation after a Freeze copies whatever the snapshot still
// shares (copy-on-write), so snapshots are stable no matter how the live
// store evolves. Appends stay O(delta): new rows and words land beyond
// the frozen length, which no snapshot reader ever indexes. Overwrites
// of existing rows pay one flat memcpy of the matrix (and, for the
// vocabulary index, one map clone) per freeze/write cycle — a batch of
// inserts amortises it across the batch.
//
// Freeze requires the same external synchronisation as Add. Mutating the
// returned snapshot panics. Freezing a frozen store returns it unchanged.
func (s *Store) Freeze() *Store {
	if s.frozen {
		return s
	}
	s.ensureNormCache() // materialise the norm cache for lock-free exact scans
	s.ensureANN()       // build the index now; a snapshot never builds lazily
	f := &Store{
		dim:          s.dim,
		precision:    s.precision,
		words:        s.words,
		index:        s.index,
		frozen:       true,
		annParams:    s.annParams,
		annThreshold: s.annThreshold,
		quantMode:    s.quantMode,
		quantRerank:  s.quantRerank,
	}
	if s.matrix != nil {
		m := *s.matrix // private header; the backing array is shared
		f.matrix = &m
	}
	if s.matrix32 != nil {
		m := *s.matrix32
		f.matrix32 = &m
	}
	s.sharedMatrix, s.sharedIndex = true, true
	s.normMu.Lock()
	f.norms = s.norms
	f.norms32 = s.norms32
	s.sharedNorms = true
	s.normMu.Unlock()
	s.annMu.Lock()
	if s.annIndex != nil && !s.annStale {
		f.annIndex = s.annIndex
		s.sharedANN = true
	}
	s.annMu.Unlock()
	return f
}

// cowMatrix gives the live store a private copy of the matrix backing
// array before an existing row is overwritten in place.
func (s *Store) cowMatrix() {
	if !s.sharedMatrix {
		return
	}
	if s.matrix != nil {
		data := make([]float64, len(s.matrix.Data))
		copy(data, s.matrix.Data)
		s.matrix = &vec.Matrix{Rows: s.matrix.Rows, Cols: s.matrix.Cols, Stride: s.matrix.Stride, Data: data}
	}
	if s.matrix32 != nil {
		data := make([]float32, len(s.matrix32.Data))
		copy(data, s.matrix32.Data)
		s.matrix32 = &vec.Matrix32{Rows: s.matrix32.Rows, Cols: s.matrix32.Cols, Stride: s.matrix32.Stride, Data: data}
	}
	s.sharedMatrix = false
}

// cowIndex gives the live store a private vocabulary index before a new
// word is registered (Go maps tolerate no concurrent read/write at all).
func (s *Store) cowIndex() {
	if !s.sharedIndex {
		return
	}
	s.index = maps.Clone(s.index)
	s.sharedIndex = false
}

// stamp records that row id changed in the store's current epoch.
// AddStaged appends rows without a RefreshRow in between, so the stamp
// backfills any gap at the current epoch (those rows were appended in
// this epoch too).
func (s *Store) stamp(id int) {
	for len(s.rowEpochs) <= id {
		s.rowEpochs = append(s.rowEpochs, s.epoch)
	}
	s.rowEpochs[id] = s.epoch
}

// Epoch returns the store's current change epoch.
func (s *Store) Epoch() uint64 { return s.epoch }

// AdvanceEpoch increments the change epoch and returns the new value.
// The storage engine calls it at each checkpoint: rows stamped before
// the advance belong to the segment just written, rows stamped after it
// to the next one. Requires the same external synchronisation as Add.
func (s *Store) AdvanceEpoch() uint64 {
	s.mutable("AdvanceEpoch")
	s.epoch++
	return s.epoch
}

// SetEpoch sets the change epoch without touching any row stamp. Used
// after recovery: rows restored from the base and segments keep their
// zero stamps (already durable), and the epoch jumps to the manifest's
// so rows touched by WAL tail replay land in the next delta.
func (s *Store) SetEpoch(e uint64) {
	s.mutable("SetEpoch")
	s.epoch = e
}

// StampAll marks every row changed in the current epoch. A full
// re-solve that rebuilt the store loses the per-row history, so the
// session conservatively stamps everything — the next checkpoint then
// captures the whole vocabulary (and typically compacts) instead of
// silently dropping rebuilt rows from the delta.
func (s *Store) StampAll() {
	s.mutable("StampAll")
	for id := range s.words {
		s.stamp(id)
	}
}

// ChangedSince returns the ids of rows stamped at or after epoch e, in
// ascending order. Rows with no stamp (a store deserialised directly
// from a snapshot) count as stamped at 0: they came from durable state,
// so they are unchanged relative to any later epoch. Requires the same
// external synchronisation as Add and is meaningless on a Freeze
// snapshot (stamps stay with the live store).
func (s *Store) ChangedSince(e uint64) []int {
	var out []int
	for id := range s.words {
		var stamp uint64
		if id < len(s.rowEpochs) {
			stamp = s.rowEpochs[id]
		}
		if stamp >= e {
			out = append(out, id)
		}
	}
	return out
}

// PrepareWrite must be called before mutating rows obtained through
// Matrix() on a store that may have outstanding Freeze snapshots: it
// detaches the matrix from any snapshot (copy-on-write) so the in-place
// row writes of the incremental repair path cannot tear a published
// read view. On a store that was never frozen it is free.
func (s *Store) PrepareWrite() {
	s.mutable("PrepareWrite")
	s.cowMatrix()
}

// Add inserts a word with its vector and returns the assigned id. Adding
// an existing word overwrites its vector and returns the existing id.
// A built ANN index is updated in place.
func (s *Store) Add(word string, vector []float64) int {
	s.mutable("Add")
	if len(vector) != s.dim {
		panic(fmt.Sprintf("embed: vector for %q has dim %d, store has %d", word, len(vector), s.dim))
	}
	if id, ok := s.index[word]; ok {
		s.cowMatrix() // overwriting a row a snapshot may be reading
		s.setRow(id, vector)
		s.normUpdate(id)
		s.annUpdate(id)
		s.stamp(id)
		return id
	}
	id := len(s.words)
	s.words = append(s.words, word)
	s.cowIndex()
	s.index[word] = id
	s.growTo(id + 1)
	s.setRow(id, vector)
	s.normUpdate(id)
	s.annUpdate(id)
	s.stamp(id)
	return id
}

// Reserve sizes the store for n rows in total, so that adding words up to
// that count reallocates neither the row matrix nor the vocabulary. It
// never shrinks the store, and requires the same external synchronisation
// as Add.
func (s *Store) Reserve(n int) {
	s.mutable("Reserve")
	if n <= len(s.words) {
		return
	}
	s.words = slices.Grow(s.words, n-len(s.words))
	s.rowEpochs = slices.Grow(s.rowEpochs, n-len(s.rowEpochs))
	if len(s.index) == 0 {
		s.index = make(map[string]int, n)
		s.sharedIndex = false
	}
	need := n * s.dim
	if s.precision == F32 {
		if s.matrix32 == nil {
			s.matrix32 = &vec.Matrix32{Cols: s.dim, Stride: s.dim}
		}
		if cap(s.matrix32.Data) < need {
			s.matrix32.Data = slices.Grow(s.matrix32.Data, need-len(s.matrix32.Data))
			s.sharedMatrix = false // the new backing array is private
		}
		return
	}
	if s.matrix == nil {
		s.matrix = &vec.Matrix{Cols: s.dim, Stride: s.dim}
	}
	if cap(s.matrix.Data) < need {
		s.matrix.Data = slices.Grow(s.matrix.Data, need-len(s.matrix.Data))
		s.sharedMatrix = false
	}
}

// AddStaged inserts a word and vector like Add but defers the derived
// per-row state — the ANN graph node and the cached norm — to a later
// RefreshRow(id). The write path stages new values with their
// provisional W0 vectors, repairs them, and only then registers the
// final vector, instead of paying a beam-search insert for a vector the
// repair is about to move. Until RefreshRow runs, the
// row is invisible to a built ANN index and the norm cache is dropped
// lazily, so the staging window must not overlap reads (the same
// external synchronisation Add already requires).
func (s *Store) AddStaged(word string, vector []float64) int {
	s.mutable("AddStaged")
	if len(vector) != s.dim {
		panic(fmt.Sprintf("embed: vector for %q has dim %d, store has %d", word, len(vector), s.dim))
	}
	if id, ok := s.index[word]; ok {
		s.cowMatrix() // overwriting a row a snapshot may be reading
		s.setRow(id, vector)
		s.stamp(id)
		return id
	}
	id := len(s.words)
	s.words = append(s.words, word)
	s.cowIndex()
	s.index[word] = id
	s.growTo(id + 1)
	s.setRow(id, vector)
	s.stamp(id)
	return id
}

// computeNorm returns the L2 norm of row id under the store's precision
// (float64 accumulation on either representation).
func (s *Store) computeNorm(id int) float64 {
	if s.precision == F32 {
		return vec.Norm32(s.row32(id))
	}
	return vec.Norm(s.row(id))
}

// normUpdate maintains the cached norm of one row; a cache that was never
// built stays unbuilt (it fills lazily on the first exact scan).
func (s *Store) normUpdate(id int) {
	s.normMu.Lock()
	defer s.normMu.Unlock()
	if s.precision == F32 {
		if s.norms32 == nil {
			return
		}
		if s.sharedNorms {
			s.norms32 = slices.Clone(s.norms32)
			s.sharedNorms = false
		}
		for len(s.norms32) < id {
			s.norms32 = append(s.norms32, float32(s.computeNorm(len(s.norms32))))
		}
		if id == len(s.norms32) {
			s.norms32 = append(s.norms32, float32(s.computeNorm(id)))
			return
		}
		s.norms32[id] = float32(s.computeNorm(id))
		return
	}
	if s.norms == nil {
		return
	}
	if s.sharedNorms {
		s.norms = slices.Clone(s.norms) // detach from any frozen snapshot
		s.sharedNorms = false
	}
	for len(s.norms) < id {
		// Rows between the cache's tail and id: AddStaged appends rows
		// without touching the cache, so a later RefreshRow on a higher
		// id must backfill the staged rows in between.
		s.norms = append(s.norms, vec.Norm(s.row(len(s.norms))))
	}
	if id == len(s.norms) {
		s.norms = append(s.norms, vec.Norm(s.row(id)))
		return
	}
	s.norms[id] = vec.Norm(s.row(id))
}

// rowNorms returns the float64 norm cache, building it on first use.
// Concurrent readers serialise only on the build. F64 stores only.
func (s *Store) rowNorms() []float64 {
	s.normMu.Lock()
	defer s.normMu.Unlock()
	if len(s.norms) != len(s.words) {
		norms := make([]float64, len(s.words))
		for id := range norms {
			norms[id] = vec.Norm(s.row(id))
		}
		s.norms = norms
		s.sharedNorms = false // freshly built, private to the live store
	}
	return s.norms
}

// rowNorms32 is rowNorms for an F32 store: the cache itself is float32
// (half the bytes the scan streams), computed through float64 norms.
func (s *Store) rowNorms32() []float32 {
	s.normMu.Lock()
	defer s.normMu.Unlock()
	if len(s.norms32) != len(s.words) {
		norms := make([]float32, len(s.words))
		for id := range norms {
			norms[id] = float32(s.computeNorm(id))
		}
		s.norms32 = norms
		s.sharedNorms = false
	}
	return s.norms32
}

// ensureNormCache materialises whichever norm cache the precision uses.
func (s *Store) ensureNormCache() {
	if s.precision == F32 {
		s.rowNorms32()
	} else {
		s.rowNorms()
	}
}

// annUpdate folds a single-row change into a built index. A placeable row
// is inserted, or — when the index already holds it — moved in place: it
// keeps its graph slot and takes its new vector (see ann.Index.Insert).
// A moved node is re-linked at its new position unless the index is
// quantized and the move left its SQ8 code unchanged; that gate is the
// quantizer's own resolution, so there is still no threshold to tune, and
// a run of updates leaves no tombstones behind. A row that became the
// zero vector, or a non-finite one, is deleted (the exact scan skips the
// zero vector too), which is the one way a store write tombstones a node.
func (s *Store) annUpdate(id int) {
	s.annMu.Lock()
	defer s.annMu.Unlock()
	if s.annIndex == nil || s.annStale {
		return
	}
	if s.sharedANN {
		// A frozen snapshot is serving queries from this graph: mutate a
		// structural clone instead (O(n) header copies, not a rebuild).
		s.annIndex = s.annIndex.Clone()
		s.sharedANN = false
	}
	r := s.widenRowLocked(id)
	if !placeable(r) {
		// Once the dead outnumber the living the graph wastes more
		// traversal than a rebuild costs, and recall degrades (the query
		// beam only widens so far) — rebuild lazily.
		if s.annIndex.Delete(id) && s.annIndex.Deleted() > s.annIndex.Len() {
			s.annStale = true
		}
	} else if err := s.annIndex.Insert(id, r); err != nil {
		s.annStale = true // can't happen (dim checked, placeable), but stay safe
	}
}

// placeable reports whether the index can hold r: cosine places a row
// only when its norm is non-zero and finite, and ann.Index.Insert rejects
// every other row.
func placeable(r []float64) bool {
	n := vec.Norm(r)
	return n != 0 && !math.IsNaN(n) && !math.IsInf(n, 0)
}

func (s *Store) growTo(n int) {
	need := n * s.dim
	if s.precision == F32 {
		if s.matrix32 == nil {
			s.matrix32 = &vec.Matrix32{Rows: 0, Cols: s.dim, Stride: s.dim}
		}
		if cap(s.matrix32.Data) < need {
			grown := make([]float32, need, maxInt(need, 2*cap(s.matrix32.Data)))
			copy(grown, s.matrix32.Data)
			s.matrix32.Data = grown
			s.sharedMatrix = false
		} else {
			s.matrix32.Data = s.matrix32.Data[:need]
		}
		s.matrix32.Rows = n
		return
	}
	if s.matrix == nil {
		s.matrix = &vec.Matrix{Rows: 0, Cols: s.dim, Stride: s.dim}
	}
	if cap(s.matrix.Data) < need {
		grown := make([]float64, need, maxInt(need, 2*cap(s.matrix.Data)))
		copy(grown, s.matrix.Data)
		s.matrix.Data = grown
		// The reallocation detached us from any frozen snapshot for free.
		s.sharedMatrix = false
	} else {
		// In-place growth writes only rows at or past the frozen length,
		// which no snapshot reader ever indexes — appends need no COW.
		s.matrix.Data = s.matrix.Data[:need]
	}
	s.matrix.Rows = n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (s *Store) row(id int) []float64   { return s.matrix.Row(id) }
func (s *Store) row32(id int) []float32 { return s.matrix32.Row(id) }

// setRow writes a float64 vector into row id under the store's
// precision. On an F32 store this is the single rounding point: each
// component is rounded to float32 once, here, and every downstream
// consumer (scans, ANN, quantization, persistence) reads the rounded
// value.
func (s *Store) setRow(id int, v []float64) {
	if s.precision == F32 {
		vec.Narrow(s.row32(id), v)
		return
	}
	copy(s.row(id), v)
}

// rowWide returns row id as []float64: the live row view on an F64
// store, or the row widened into buf (which must have length Dim) on an
// F32 store.
func (s *Store) rowWide(buf []float64, id int) []float64 {
	if s.precision == F32 {
		return vec.Widen(buf, s.row32(id))
	}
	return s.row(id)
}

// widenRowLocked widens row id into the store's scratch row (annMu must
// be held on concurrent paths). F64 stores return the live row.
func (s *Store) widenRowLocked(id int) []float64 {
	if s.precision != F32 {
		return s.row(id)
	}
	if len(s.wbuf) != s.dim {
		s.wbuf = make([]float64, s.dim)
	}
	return vec.Widen(s.wbuf, s.row32(id))
}

// ID returns the id of word.
func (s *Store) ID(word string) (int, bool) {
	id, ok := s.index[word]
	return id, ok
}

// Word returns the word with the given id.
func (s *Store) Word(id int) string { return s.words[id] }

// Words returns the vocabulary in id order. The slice must not be mutated.
func (s *Store) Words() []string { return s.words }

// Vector returns the vector for id as []float64: a read-only view on an
// F64 store, a freshly widened copy on an F32 store. Callers must not
// mutate it; use SetVector to change a stored vector.
func (s *Store) Vector(id int) []float64 {
	if s.precision == F32 {
		return vec.Widen(make([]float64, s.dim), s.row32(id))
	}
	return s.row(id)
}

// Vector32 returns a read-only float32 view of the vector for id. Only
// valid on an F32 store (the storage engine's delta checkpoints read
// rows through it to persist float32 words without a round trip).
func (s *Store) Vector32(id int) []float32 {
	if s.precision != F32 {
		panic("embed: Vector32 on a float64 store")
	}
	return s.row32(id)
}

// VectorOf returns the vector for a word, if present. Like Vector, an
// F32 store returns a widened copy.
func (s *Store) VectorOf(word string) ([]float64, bool) {
	id, ok := s.index[word]
	if !ok {
		return nil, false
	}
	return s.Vector(id), true
}

// SetVector overwrites the vector stored for id. A built ANN index is
// updated in place.
func (s *Store) SetVector(id int, vector []float64) {
	s.mutable("SetVector")
	if len(vector) != s.dim {
		panic("embed: SetVector dimension mismatch")
	}
	s.cowMatrix()
	s.setRow(id, vector)
	s.normUpdate(id)
	s.annUpdate(id)
	s.stamp(id)
}

// RefreshRow re-syncs the store's derived per-row state — the cached row
// norm and the ANN graph node — after the caller mutated row id in place
// through Matrix(). The incremental repair path writes re-solved vectors
// directly into the matrix and then refreshes each touched row, instead
// of copying every vector through SetVector.
func (s *Store) RefreshRow(id int) {
	s.mutable("RefreshRow")
	s.normUpdate(id)
	s.annUpdate(id)
	s.stamp(id)
}

// Matrix exposes the underlying (Len x Dim) float64 matrix. Rows are
// live views: mutating them mutates the store; callers that do so must
// call PrepareWrite first (so frozen snapshots are detached) and
// RefreshRow for each changed row (or InvalidateANN for bulk rewrites)
// so the ANN index and norm cache stay in step.
//
// Matrix panics on an F32 store: the float64 solver state cannot alias
// float32 rows. The session layer keeps its own float64 mirror and
// writes results back through SetVector (which rounds once).
func (s *Store) Matrix() *vec.Matrix {
	if s.precision == F32 {
		panic("embed: Matrix on a float32 store (solvers bind to a float64 mirror)")
	}
	if s.matrix == nil {
		return vec.NewMatrix(0, s.dim)
	}
	return s.matrix
}

// Matrix32 exposes the underlying float32 matrix of an F32 store, with
// the same live-view caveats as Matrix. It panics on an F64 store.
func (s *Store) Matrix32() *vec.Matrix32 {
	if s.precision != F32 {
		panic("embed: Matrix32 on a float64 store")
	}
	if s.matrix32 == nil {
		return vec.NewMatrix32(0, s.dim)
	}
	return s.matrix32
}

// Clone returns a deep copy of the store at the same precision. The ANN
// and quantization configuration is carried over; the index itself is
// rebuilt lazily on the copy.
func (s *Store) Clone() *Store {
	out := NewStoreWithPrecision(s.dim, s.precision)
	out.annParams = s.annParams
	out.annThreshold = s.annThreshold
	out.quantMode = s.quantMode
	out.quantRerank = s.quantRerank
	buf := make([]float64, s.dim)
	for id, w := range s.words {
		out.Add(w, s.rowWide(buf, id))
	}
	return out
}

// NormalizeAll scales every vector to unit L2 norm in place (zero vectors
// stay zero). The paper normalises embeddings before feeding them to the
// task networks (§5.5).
func (s *Store) NormalizeAll() {
	s.mutable("NormalizeAll")
	s.cowMatrix()
	for id := range s.words {
		if s.precision == F32 {
			vec.Normalize32(s.row32(id))
		} else {
			vec.Normalize(s.row(id))
		}
		s.normUpdate(id)
		s.stamp(id)
	}
	// A built ANN index stays valid: it already stores unit-normalised
	// copies, and cosine similarity is scale-invariant, so normalising
	// the rows changes neither the ordering nor (beyond last-ulp
	// rounding) the returned scores.
}

// EnableANN turns on approximate search above the given vocabulary-size
// threshold (0 selects DefaultANNThreshold) with the given graph
// parameters (zero fields select ann defaults). Any built index is
// discarded and rebuilt lazily with the new settings.
func (s *Store) EnableANN(threshold int, p ann.Params) {
	s.mutable("EnableANN")
	if threshold <= 0 {
		threshold = DefaultANNThreshold
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	s.annThreshold = threshold
	s.annParams = p
	s.annIndex = nil
	s.annStale = false
	s.sharedANN = false // any snapshot keeps the old index; ours is gone
}

// DisableANN makes every TopK use the exact scan.
func (s *Store) DisableANN() {
	s.mutable("DisableANN")
	s.annMu.Lock()
	defer s.annMu.Unlock()
	s.annThreshold = 0
	s.annIndex = nil
	s.annStale = false
	s.sharedANN = false
}

// InvalidateANN marks a built index stale so the next TopK rebuilds it,
// and drops the row-norm cache. Callers that bulk-rewrite vectors through
// Matrix() must invoke this (single-row mutations use RefreshRow).
func (s *Store) InvalidateANN() {
	s.mutable("InvalidateANN")
	s.annMu.Lock()
	if s.annIndex != nil {
		s.annStale = true
	}
	s.annMu.Unlock()
	s.normMu.Lock()
	s.norms = nil
	s.norms32 = nil
	s.sharedNorms = false // the snapshot keeps its cache; ours is dropped
	s.normMu.Unlock()
}

// ANNThreshold returns the vocabulary size at which TopK switches to the
// HNSW index (0 when ANN is disabled).
func (s *Store) ANNThreshold() int {
	s.annMu.Lock()
	defer s.annMu.Unlock()
	return s.annThreshold
}

// ANNParams returns the graph parameters a (re)built index would use.
func (s *Store) ANNParams() ann.Params {
	s.annMu.Lock()
	defer s.annMu.Unlock()
	return s.annParams
}

// EnableQuantization selects the ANN candidate-generation mode: QuantSQ8
// traverses the HNSW graph on 8-bit codes and re-ranks exactly, QuantOff
// (also "", "none") restores exact float64 traversal. rerank is the SQ8
// over-fetch factor (candidates fetched = rerank*k before exact
// re-scoring; non-positive selects the ann default). The built index is
// converted lazily on the next query/WarmANN/Freeze, retraining code
// ranges from the store's current vectors; a frozen snapshot keeps
// whatever the store had at Freeze time. Unknown modes panic — callers
// taking user input validate with ParseQuantMode first. Requires the
// same external synchronisation as Add.
func (s *Store) EnableQuantization(mode string, rerank int) {
	s.mutable("EnableQuantization")
	m, err := ParseQuantMode(mode)
	if err != nil {
		panic(err.Error())
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	s.quantMode = m
	if rerank > 0 {
		s.quantRerank = rerank
	} else {
		s.quantRerank = 0
	}
}

// Quantization returns the configured mode (QuantOff or QuantSQ8) and
// the effective rerank factor of the built index (the configured value,
// or the index's actual factor once one is quantized).
func (s *Store) Quantization() (mode string, rerank int) {
	if s.frozen {
		// Freeze materialised everything; read without locking.
		mode, rerank = s.quantMode, s.quantRerank
		if s.annIndex != nil && s.annIndex.Quantized() {
			rerank = s.annIndex.Rerank()
		}
		if mode == "" {
			mode = QuantOff
		}
		return mode, rerank
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	mode, rerank = s.quantMode, s.quantRerank
	if s.annIndex != nil && !s.annStale && s.annIndex.Quantized() {
		rerank = s.annIndex.Rerank()
	}
	if mode == "" {
		mode = QuantOff
	}
	return mode, rerank
}

// TuneRerank adjusts the SQ8 over-fetch factor on both the configured
// state and any built quantized index, without retraining the codebook —
// the re-rank depth, like the beam width, is a pure query-time knob.
// Non-positive values are ignored. Requires the same external
// synchronisation as Add.
func (s *Store) TuneRerank(r int) {
	s.mutable("TuneRerank")
	if r <= 0 {
		return
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	s.quantRerank = r
	if s.annIndex != nil && s.annIndex.Quantized() {
		if s.sharedANN {
			s.annIndex = s.annIndex.Clone() // the snapshot keeps its depth
			s.sharedANN = false
		}
		s.annIndex.SetRerank(r)
	}
}

// reconcileQuantLocked brings a built index's quantization state in line
// with the store's configured mode (annMu held). A frozen snapshot still
// sharing the index keeps its version: the store clones before
// converting, exactly as every other post-freeze index mutation does.
func (s *Store) reconcileQuantLocked() {
	idx := s.annIndex
	if idx == nil || s.annStale {
		return
	}
	wantSQ8 := s.quantMode == QuantSQ8
	if wantSQ8 == idx.Quantized() {
		if wantSQ8 && s.quantRerank > 0 && idx.Rerank() != s.quantRerank {
			if s.sharedANN {
				idx = idx.Clone()
				s.annIndex = idx
				s.sharedANN = false
			}
			idx.SetRerank(s.quantRerank)
		}
		return
	}
	if s.sharedANN {
		idx = idx.Clone()
		s.annIndex = idx
		s.sharedANN = false
	}
	if wantSQ8 {
		idx.QuantizeSQ8(s.quantRerank)
	} else {
		idx.DisableQuant()
	}
}

// TuneEfSearch adjusts the query-time beam width on both the configured
// parameters and any built (or adopted) index, without discarding the
// index — unlike EnableANN, which forces a rebuild. Non-positive values
// are ignored. Requires the same external synchronisation as Add.
func (s *Store) TuneEfSearch(ef int) {
	s.mutable("TuneEfSearch")
	if ef <= 0 {
		return
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	s.annParams.EfSearch = ef
	if s.annIndex != nil {
		if s.sharedANN {
			s.annIndex = s.annIndex.Clone() // the snapshot keeps its beam width
			s.sharedANN = false
		}
		s.annIndex.SetEfSearch(ef)
	}
}

// AdoptANN installs an externally built (typically deserialised) HNSW
// index as the store's current index, replacing any existing one. The
// index must cover this store's vectors under the store's ids; Add and
// SetVector maintain it incrementally from here on, exactly as if the
// store had built it itself. The store's configured ANN parameters (used
// for any future rebuild) are left untouched, but the quantization
// configuration is taken FROM the adopted index — it arrives with its
// codes and codebook (or without), and that state must survive the next
// reconcile instead of being converted back to whatever the store had.
func (s *Store) AdoptANN(idx *ann.Index) error {
	s.mutable("AdoptANN")
	if idx.Dim() != s.dim {
		return fmt.Errorf("embed: adopting index of dim %d into store of dim %d", idx.Dim(), s.dim)
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	s.annIndex = idx
	s.annStale = false
	s.sharedANN = false
	if idx.Quantized() {
		s.quantMode = QuantSQ8
		s.quantRerank = idx.Rerank()
	} else {
		s.quantMode = QuantOff
		s.quantRerank = 0
	}
	return nil
}

// MemoryStats breaks down the store's resident data payload: the
// embedding matrix, the row-norm cache, and — when an ANN index is
// built — its graph rows, SQ8 codes and adjacency lists. Figures are
// payload bytes (slice headers and the vocabulary excluded), which is
// what the precision choice actually moves; the serving stats endpoint
// and the footprint guard read them.
type MemoryStats struct {
	Precision      string `json:"precision"`
	MatrixBytes    int64  `json:"matrix_bytes"`
	NormBytes      int64  `json:"norm_bytes"`
	GraphVecBytes  int64  `json:"graph_vector_bytes"`
	CodeBytes      int64  `json:"code_bytes"`
	AdjacencyBytes int64  `json:"adjacency_bytes"`
	TotalBytes     int64  `json:"total_bytes"`
}

// MemoryStats reports the store's payload footprint. Safe concurrently
// with reads (it takes the internal locks a live store's lazy builds
// use); requires the usual external exclusion against writers.
func (s *Store) MemoryStats() MemoryStats {
	ms := MemoryStats{Precision: s.precision.String()}
	if s.matrix != nil {
		ms.MatrixBytes = int64(8 * len(s.matrix.Data))
	}
	if s.matrix32 != nil {
		ms.MatrixBytes = int64(4 * len(s.matrix32.Data))
	}
	if s.frozen {
		ms.NormBytes = int64(8*len(s.norms) + 4*len(s.norms32))
		if s.annIndex != nil {
			ann := s.annIndex.MemoryStats()
			ms.GraphVecBytes = ann.VectorBytes
			ms.CodeBytes = ann.CodeBytes
			ms.AdjacencyBytes = ann.AdjacencyBytes
		}
	} else {
		s.normMu.Lock()
		ms.NormBytes = int64(8*len(s.norms) + 4*len(s.norms32))
		s.normMu.Unlock()
		s.annMu.Lock()
		if s.annIndex != nil && !s.annStale {
			ann := s.annIndex.MemoryStats()
			ms.GraphVecBytes = ann.VectorBytes
			ms.CodeBytes = ann.CodeBytes
			ms.AdjacencyBytes = ann.AdjacencyBytes
		}
		s.annMu.Unlock()
	}
	ms.TotalBytes = ms.MatrixBytes + ms.NormBytes + ms.GraphVecBytes + ms.CodeBytes + ms.AdjacencyBytes
	return ms
}

// ANNIndex returns the built HNSW index, or nil when disabled, stale or
// not yet built. Intended for introspection (serving stats).
func (s *Store) ANNIndex() *ann.Index {
	s.annMu.Lock()
	defer s.annMu.Unlock()
	if s.annStale {
		return nil
	}
	return s.annIndex
}

// WarmANN builds the HNSW index now if approximate search applies and it
// is missing or stale. Serving paths call this after training and after
// bulk repairs so the first live query never pays the O(n) build inside
// its request. On a frozen snapshot it is a no-op: Freeze already
// materialised the index.
func (s *Store) WarmANN() {
	if s.frozen {
		return
	}
	s.ensureANN()
}

// queryANN returns the index TopK should use. A frozen snapshot reads
// its (immutable) pointer directly — no lock, no lazy build; live stores
// go through the build-if-needed path.
func (s *Store) queryANN() *ann.Index {
	if s.frozen {
		if s.annThreshold <= 0 || len(s.words) < s.annThreshold {
			return nil
		}
		return s.annIndex
	}
	return s.ensureANN()
}

// ensureANN returns a ready index when approximate search applies to this
// store, building or rebuilding it if needed. Concurrent callers
// serialise on the build; the returned index is immutable to readers.
func (s *Store) ensureANN() *ann.Index {
	if s.annThreshold <= 0 || len(s.words) < s.annThreshold {
		return nil
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	if s.annIndex != nil && !s.annStale {
		s.reconcileQuantLocked()
		return s.annIndex
	}
	var idx *ann.Index
	if s.precision == F32 {
		// The graph stores float32 rows too: the store's rounded rows
		// pass through a float64 widening for unit-normalisation and are
		// narrowed again inside the index.
		idx = ann.New32(s.dim, s.annParams)
	} else {
		idx = ann.New(s.dim, s.annParams)
	}
	if s.quantMode == QuantSQ8 {
		// Quantize first, then build: the codebook comes from the rows
		// about to go in, so the build links every node through the
		// quantized search the incremental inserts after it will use —
		// boot, recovery and repair all construct the graph the same way.
		idx.TrainSQ8(len(s.words), s.widenRowLocked, s.quantRerank)
	}
	for id := range s.words {
		r := s.widenRowLocked(id)
		if !placeable(r) {
			continue // the exact scan skips zero vectors too
		}
		// Insert only fails on dimension mismatch or an unplaceable row,
		// both excluded here.
		_ = idx.Insert(id, r)
	}
	s.annIndex = idx
	s.annStale = false
	s.sharedANN = false // freshly built, private to the live store
	s.reconcileQuantLocked()
	return s.annIndex
}

// Match is one nearest-neighbour result.
type Match struct {
	ID    int
	Word  string
	Score float64 // cosine similarity
}

// TopK returns the k entries most cosine-similar to query, excluding any
// id for which skip returns true (skip may be nil). Results are sorted by
// descending score, ties broken by ascending id for determinism.
// Non-positive k returns nil and k is clamped to the vocabulary size —
// on both the approximate and the exact path, so switching between them
// never changes how out-of-range k behaves.
//
// At or above the ANN threshold (see EnableANN) the query is answered by
// the HNSW index — approximate, with recall tuned by ann.Params — and
// falls back to the exact scan below it or when ANN is disabled. Use
// TopKExact to force the exact answer.
func (s *Store) TopK(query []float64, k int, skip func(id int) bool) []Match {
	return s.TopKAppend(query, k, skip, nil)
}

// resultPool recycles the intermediate ann.Result buffer the ANN path
// needs before id->word resolution, keeping TopKAppend allocation-free.
var resultPool = sync.Pool{New: func() any { return new([]ann.Result) }}

// q32Pool recycles the narrowed-query buffer of the float32 exact scan.
var q32Pool = sync.Pool{New: func() any { return new([]float32) }}

// TopKAppend is TopK with caller-owned result storage: matches are
// written into dst[:0] and the slice (grown if its capacity was short)
// is returned. With cap(dst) >= k and warm scratch pools a query on
// either path performs no allocation.
func (s *Store) TopKAppend(query []float64, k int, skip func(id int) bool, dst []Match) []Match {
	return s.TopKAppendStats(query, k, skip, dst, nil)
}

// TopKAppendStats is TopKAppend with traversal telemetry for the
// serving layer: when st is non-nil it is filled with the query's
// per-stage stats (see ann.SearchStats). On the exact-scan fallback the
// whole scan counts as the walk, every row is a scored node, and hops
// and re-rank stay zero. A nil st adds no work to either path.
func (s *Store) TopKAppendStats(query []float64, k int, skip func(id int) bool, dst []Match, st *ann.SearchStats) []Match {
	if len(query) != s.dim {
		panic("embed: TopK query dimension mismatch")
	}
	if st != nil {
		*st = ann.SearchStats{}
	}
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	if k > len(s.words) {
		k = len(s.words) // bounds the result growth on either path
	}
	if idx := s.queryANN(); idx != nil {
		buf := resultPool.Get().(*[]ann.Result)
		results := idx.TopKAppendStats(query, k, skip, *buf, st)
		for _, r := range results {
			dst = append(dst, Match{ID: r.ID, Word: s.words[r.ID], Score: r.Score})
		}
		*buf = results
		resultPool.Put(buf)
		return dst
	}
	if st == nil {
		return s.TopKExactAppend(query, k, skip, dst)
	}
	start := time.Now()
	dst = s.TopKExactAppend(query, k, skip, dst)
	st.WalkNs = time.Since(start).Nanoseconds()
	st.Nodes = len(s.words)
	return dst
}

// TopKExact is the brute-force O(n·d) scan: always exact, regardless of
// the ANN configuration. Candidates are kept in a bounded min-heap, so a
// scan costs O(n·d + n·log k) instead of the O(n·k·log k) a
// sort-per-candidate would; row norms come from the store's cache rather
// than being recomputed per query.
func (s *Store) TopKExact(query []float64, k int, skip func(id int) bool) []Match {
	return s.TopKExactAppend(query, k, skip, nil)
}

// TopKExactAppend is TopKExact with caller-owned result storage: the
// bounded min-heap is built directly in dst[:0], so with cap(dst) >= k
// the scan performs no allocation at all. Frozen snapshots read the
// materialised norm cache without taking the norm mutex.
func (s *Store) TopKExactAppend(query []float64, k int, skip func(id int) bool, dst []Match) []Match {
	if len(query) != s.dim {
		panic("embed: TopK query dimension mismatch")
	}
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	if k > len(s.words) {
		k = len(s.words) // bounds the result growth
	}
	qn := vec.Norm(query)
	if qn == 0 {
		return dst
	}
	// Min-heap of the best k so far: the root is the weakest kept match
	// (lowest score; among ties, the highest id), so a candidate beats the
	// buffer iff its score strictly exceeds the root's — ties keep the
	// earlier entry, exactly as the id-ordered scan always has.
	heap := dst
	if s.precision == F32 {
		var norms []float32
		if s.frozen {
			norms = s.norms32 // materialised at Freeze, immutable from then on
		} else {
			norms = s.rowNorms32()
		}
		// Narrow the query once; the scan then streams half the bytes per
		// row it would in float64, with float64 accumulation inside Dot32.
		qbuf := q32Pool.Get().(*[]float32)
		q32 := *qbuf
		if cap(q32) < s.dim {
			q32 = make([]float32, s.dim)
		}
		q32 = vec.Narrow(q32[:s.dim], query)
		for id := range s.words {
			if skip != nil && skip(id) {
				continue
			}
			rn := norms[id]
			if rn == 0 {
				continue
			}
			score := vec.Dot32(q32, s.row32(id)) / (qn * float64(rn))
			if len(heap) < k {
				heap = append(heap, Match{ID: id, Word: s.words[id], Score: score})
				siftUp(heap, len(heap)-1)
				continue
			}
			if score <= heap[0].Score {
				continue
			}
			heap[0] = Match{ID: id, Word: s.words[id], Score: score}
			siftDown(heap, 0)
		}
		*qbuf = q32
		q32Pool.Put(qbuf)
	} else {
		var norms []float64
		if s.frozen {
			norms = s.norms // materialised at Freeze, immutable from then on
		} else {
			norms = s.rowNorms()
		}
		for id := range s.words {
			if skip != nil && skip(id) {
				continue
			}
			rn := norms[id]
			if rn == 0 {
				continue
			}
			score := vec.Dot(query, s.row(id)) / (qn * rn)
			if len(heap) < k {
				heap = append(heap, Match{ID: id, Word: s.words[id], Score: score})
				siftUp(heap, len(heap)-1)
				continue
			}
			if score <= heap[0].Score {
				continue
			}
			heap[0] = Match{ID: id, Word: s.words[id], Score: score}
			siftDown(heap, 0)
		}
	}
	slices.SortFunc(heap, func(a, b Match) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return heap
}

// matchLess orders the bounded heap: weakest match first — ascending
// score, ties broken by descending id so that among equal scores the
// latest-seen entry is evicted first.
func matchLess(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

func siftUp(h []Match, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !matchLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []Match, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && matchLess(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && matchLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Analogy computes the classic a - b + c query ("king" - "man" + "woman")
// and returns the top-k neighbours of the result, excluding a, b and c.
func (s *Store) Analogy(a, b, c string, k int) ([]Match, error) {
	return s.AnalogyStats(a, b, c, k, nil)
}

// AnalogyStats is Analogy with traversal telemetry: when st is non-nil
// it receives the underlying search's stats (see TopKAppendStats), so a
// serving layer can trace analogy queries exactly like neighbour
// queries.
func (s *Store) AnalogyStats(a, b, c string, k int, st *ann.SearchStats) ([]Match, error) {
	va, okA := s.VectorOf(a)
	vb, okB := s.VectorOf(b)
	vc, okC := s.VectorOf(c)
	if !okA || !okB || !okC {
		return nil, fmt.Errorf("embed: analogy term missing (%q:%v %q:%v %q:%v)", a, okA, b, okB, c, okC)
	}
	q := vec.Clone(va)
	vec.Axpy(q, -1, vb)
	vec.Axpy(q, 1, vc)
	exclude := map[int]bool{}
	for _, w := range []string{a, b, c} {
		if id, ok := s.ID(w); ok {
			exclude[id] = true
		}
	}
	return s.TopKAppendStats(q, k, func(id int) bool { return exclude[id] }, nil, st), nil
}
