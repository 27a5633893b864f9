package ann

import (
	"fmt"
	"io"
	"math"

	"github.com/retrodb/retro/internal/quant"
	"github.com/retrodb/retro/internal/vec"
	"github.com/retrodb/retro/internal/wire"
)

// SQ8 candidate generation. A quantized index traverses on 1-byte codes
// (see quant) and re-ranks the over-fetched candidate set exactly. The
// codebook is trained from unit-normalised vectors — rows of the store
// matrix after normalisation — either up front from the rows a build is
// about to insert (TrainSQ8, so the build itself links on the codes) or
// from the nodes of an index that already exists (QuantizeSQ8).
//
// Quantization state follows the index's existing synchronisation rules:
// TrainSQ8/QuantizeSQ8/DisableQuant/SetRerank mutate index state and need
// the same external exclusion as Insert; queries on a quantized index
// remain safe to run concurrently with each other.

// DefaultRerank is the candidate over-fetch factor: TopK pulls
// DefaultRerank*k quantized candidates and re-scores them exactly. 3 is
// enough to hold recall@10 at the exact path's level on clustered
// embedding workloads (the SQ8 approximation error is far smaller than
// typical neighbour score gaps, so the true top k essentially always
// lands inside the top 3k quantized candidates) while keeping the
// re-ranking and beam cost low; raise it per query path via SetRerank
// when the data is adversarially uniform.
const DefaultRerank = 3

// TrainSQ8 quantizes a still-empty index ahead of its build: the codebook
// is trained from the n rows about to be inserted, normalised and rounded
// exactly as Insert will store them, so it equals the codebook QuantizeSQ8
// would train once they are all in. Every Insert from here on encodes its
// node and searches for its links on the codes, which is how the index
// will be maintained for the rest of its life — a bulk build and the
// incremental inserts after it construct links the same way. rerank is
// the over-fetch factor (non-positive selects DefaultRerank). row(i) may
// return a zero vector (contributing nothing) and may reuse one buffer
// across calls. It panics on an index that already holds nodes.
func (ix *Index) TrainSQ8(n int, row func(i int) []float64, rerank int) {
	if len(ix.nodes) != 0 {
		panic("ann: TrainSQ8 on a non-empty index (use QuantizeSQ8)")
	}
	unit := make([]float64, ix.dim)
	cb := quant.Train(ix.dim, n, func(i int) []float64 {
		r := row(i)
		nrm := vec.Norm(r)
		if nrm == 0 {
			nrm = 1 // all components are zero already
		}
		for d, x := range r {
			unit[d] = x / nrm
			if ix.f32 {
				unit[d] = float64(float32(unit[d]))
			}
		}
		return unit
	})
	ix.installQuant(cb, rerank)
}

// QuantizeSQ8 trains a symmetric per-dimension SQ8 codebook over every
// stored vector and encodes each node, switching traversal to the
// code-domain kernel. rerank is the over-fetch factor for re-ranking
// (non-positive selects DefaultRerank). Re-quantizing an already
// quantized index retrains from the current vectors.
func (ix *Index) QuantizeSQ8(rerank int) {
	var cb *quant.Codebook
	if ix.f32 {
		// Train32/Encode32 widen every component to float64 internally,
		// so an f32 index produces the same codes a float64 index over
		// the identical float32-rounded rows would.
		cb = quant.Train32(ix.dim, len(ix.nodes), func(i int) []float32 { return ix.nodes[i].vec32 })
	} else {
		cb = quant.Train(ix.dim, len(ix.nodes), func(i int) []float64 { return ix.nodes[i].vec })
	}
	ix.installQuant(cb, rerank)
}

func (ix *Index) installQuant(cb *quant.Codebook, rerank int) {
	if rerank <= 0 {
		rerank = DefaultRerank
	}
	ix.quant = cb
	ix.rerank = rerank
	ix.qflat = make([]int8, len(ix.nodes)*ix.dim)
	ix.qcorr = make([]float64, len(ix.nodes))
	for i := range ix.nodes {
		ix.qcorr[i] = ix.encode(ix.code(int32(i)), &ix.nodes[i])
	}
}

// encode writes the SQ8 code of nd's stored vector into dst and returns
// its correction. On an f32 index the code comes from the narrowed copy,
// not the float64 unit vector it was rounded from, so it matches what a
// retrain over the stored rows would emit.
func (ix *Index) encode(dst []int8, nd *node) float64 {
	if ix.f32 {
		return ix.quant.Encode32(dst, nd.vec32)
	}
	return ix.quant.Encode(dst, nd.vec)
}

// DisableQuant drops the codebook and every node's code; traversal
// returns to exact float64 distances.
func (ix *Index) DisableQuant() {
	ix.quant = nil
	ix.rerank = 0
	ix.qflat = nil
	ix.qcorr = nil
}

// Quantized reports whether the index traverses on SQ8 codes.
func (ix *Index) Quantized() bool { return ix.quant != nil }

// Rerank returns the candidate over-fetch factor (0 when unquantized).
func (ix *Index) Rerank() int { return ix.rerank }

// SetRerank adjusts the over-fetch factor on a quantized index. Like
// SetEfSearch it affects only queries, letting serving processes retune
// the recall/latency point on a snapshot-restored index; it still
// requires the same external synchronisation as Insert. Non-positive
// values and calls on an unquantized index are ignored.
func (ix *Index) SetRerank(r int) {
	if r > 0 && ix.quant != nil {
		ix.rerank = r
	}
}

// Codebook returns the trained SQ8 codebook, or nil when unquantized.
func (ix *Index) Codebook() *quant.Codebook { return ix.quant }

// --- sidecar serialisation --------------------------------------------------

// The quant sidecar persists the trained scales and every node's code
// verbatim, aligned to the graph's node slots, so a loaded index answers
// quantized queries identically to the one that was written — and a
// re-saved snapshot is byte-identical (codes are never re-derived from
// the float32-rounded vectors, which could flip ties at rounding
// boundaries).

const (
	quantMagic   = "QSQ8"
	quantVersion = 1
)

// WriteQuantTo serialises the quantization sidecar (codebook scales,
// rerank factor and per-slot codes). It fails on an unquantized index.
func (ix *Index) WriteQuantTo(w io.Writer) (int64, error) {
	if ix.quant == nil {
		return 0, fmt.Errorf("ann: index is not quantized")
	}
	ww := wire.NewWriter(w)
	ww.Bytes([]byte(quantMagic))
	ww.U32(quantVersion)
	ww.U32(uint32(ix.dim))
	ww.U32(uint32(ix.rerank))
	for _, s := range ix.quant.Scales() {
		ww.F64(s)
	}
	ww.U32(uint32(len(ix.nodes)))
	buf := make([]byte, ix.dim)
	for i := range ix.nodes {
		ww.F64(ix.qcorr[i])
		for d, c := range ix.code(int32(i)) {
			buf[d] = byte(c)
		}
		ww.Bytes(buf)
	}
	err := ww.Flush()
	return ww.Count(), err
}

// ReadQuantInto restores a sidecar written by WriteQuantTo onto this
// index. The sidecar must match the index's dimensionality and node
// count (it was written against the same graph). Malformed input is an
// error, never a panic, and the index is left unquantized on failure.
func (ix *Index) ReadQuantInto(r io.Reader) error {
	rr := wire.NewReader(r)
	magic := make([]byte, len(quantMagic))
	rr.Bytes(magic)
	if rr.Err() == nil && string(magic) != quantMagic {
		return fmt.Errorf("ann: bad quant sidecar magic %q", magic)
	}
	if v := rr.U32(); rr.Err() == nil && v != quantVersion {
		return fmt.Errorf("ann: unsupported quant sidecar version %d (have %d)", v, quantVersion)
	}
	dim := int(rr.U32())
	rerank := int(rr.U32())
	if err := rr.Err(); err != nil {
		return fmt.Errorf("ann: reading quant sidecar header: %w", err)
	}
	if dim != ix.dim {
		return fmt.Errorf("ann: quant sidecar dim %d does not match index dim %d", dim, ix.dim)
	}
	if rerank <= 0 || rerank > 1<<16 {
		return fmt.Errorf("ann: implausible rerank factor %d", rerank)
	}
	scales := make([]float64, dim)
	for d := range scales {
		scales[d] = rr.F64()
	}
	if err := rr.Err(); err != nil {
		return fmt.Errorf("ann: reading quant scales: %w", err)
	}
	cb, err := quant.NewCodebook(scales)
	if err != nil {
		return fmt.Errorf("ann: %w", err)
	}
	numNodes := rr.Count32(maxNodes)
	if err := rr.Err(); err != nil {
		return fmt.Errorf("ann: reading quant node count: %w", err)
	}
	if numNodes != len(ix.nodes) {
		return fmt.Errorf("ann: quant sidecar covers %d nodes, graph has %d", numNodes, len(ix.nodes))
	}
	corrs := make([]float64, numNodes)
	flat := make([]int8, numNodes*dim)
	buf := make([]byte, dim)
	for i := 0; i < numNodes; i++ {
		corrs[i] = rr.F64()
		rr.Bytes(buf)
		if err := rr.Err(); err != nil {
			return fmt.Errorf("ann: quant codes for node %d: %w", i, err)
		}
		if corrs[i] < 0 || math.IsNaN(corrs[i]) || math.IsInf(corrs[i], 0) {
			return fmt.Errorf("ann: implausible correction %v for node %d", corrs[i], i)
		}
		code := flat[i*dim : (i+1)*dim]
		for d, b := range buf {
			code[d] = int8(b)
		}
	}
	ix.qflat = flat
	ix.qcorr = corrs
	ix.quant = cb
	ix.rerank = rerank
	return nil
}

// ReadQuantHeader parses just the dimensionality and rerank factor off a
// sidecar, for cheap snapshot introspection.
func ReadQuantHeader(r io.Reader) (dim, rerank int, err error) {
	rr := wire.NewReader(r)
	magic := make([]byte, len(quantMagic))
	rr.Bytes(magic)
	if rr.Err() == nil && string(magic) != quantMagic {
		return 0, 0, fmt.Errorf("ann: bad quant sidecar magic %q", magic)
	}
	if v := rr.U32(); rr.Err() == nil && v != quantVersion {
		return 0, 0, fmt.Errorf("ann: unsupported quant sidecar version %d (have %d)", v, quantVersion)
	}
	dim = int(rr.U32())
	rerank = int(rr.U32())
	if err := rr.Err(); err != nil {
		return 0, 0, fmt.Errorf("ann: reading quant sidecar header: %w", err)
	}
	return dim, rerank, nil
}
