package ann

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/retrodb/retro/internal/quant"
	"github.com/retrodb/retro/internal/wire"
)

// Graph persistence. The layout captures the full build state — every
// node (including tombstones, which still carry traversal load), the
// per-layer adjacency, the entry point and the effective parameters — so
// a deserialised index walks the same graph as the one that was written,
// without re-running construction. Vectors are packed as float32: they
// are unit-normalised copies used only for similarity scoring, where the
// ~1e-7 rounding is far below the recall tolerance of the approximate
// search itself. A float32 index therefore answers queries identically
// after a round trip; a float64 index comes back with its rows rounded to
// float32, so its scores agree with the written index's to ~1e-7 and its
// answers can differ across a near-tie.
//
// The level RNG is restored by replaying the draw count — one draw per
// slot, since only the insert that creates a slot draws and a move keeps
// its level — so inserts after a load assign the same levels the original
// index would have.
//
// A second, links-only encoding (WriteLinksTo / ReadLinks) carries the
// same header, nodes and adjacency but no live node vectors and no codes:
// the reader recomputes each live node's unit vector from the row its
// caller holds for the id, down the path Insert takes, and re-encodes the
// codes with the persisted SQ8 codebook. Only tombstones, which have no
// row to recompute from, keep their vector in the stream. It is the form
// a storage checkpoint persists beside rows it already stores. Both
// encodings go through one writer and one parser, so the node, adjacency
// and entry-point checks are shared.

const (
	graphMagic   = "RANN"
	graphVersion = 1
	linksMagic   = "RANL"
	linksVersion = 1

	maxDim      = 1 << 16
	maxNodes    = 1 << 27
	maxLayers   = 64
	maxLayerFan = 1 << 16
)

// WriteTo serialises the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.writeGraph(w, true) }

// WriteLinksTo serialises the index without its live node vectors and
// codes (see ReadLinks): the header, every slot's id, tombstone flag and
// per-layer links, each tombstone's vector, and the SQ8 scales and rerank
// factor when the index is quantized.
func (ix *Index) WriteLinksTo(w io.Writer) (int64, error) { return ix.writeGraph(w, false) }

// writeGraph is the one writer behind both encodings. withVectors selects
// the full graph (every node's vector) over links-only (tombstones' only,
// plus the quantization trailer).
func (ix *Index) writeGraph(w io.Writer, withVectors bool) (int64, error) {
	ww := wire.NewWriter(w)
	if withVectors {
		ww.Bytes([]byte(graphMagic))
		ww.U32(graphVersion)
	} else {
		ww.Bytes([]byte(linksMagic))
		ww.U32(linksVersion)
	}
	ww.U32(uint32(ix.dim))
	ww.U32(uint32(ix.params.M))
	ww.U32(uint32(ix.params.EfConstruction))
	ww.U32(uint32(ix.params.EfSearch))
	ww.I64(ix.params.Seed)
	ww.I32(ix.entry)
	ww.I32(int32(ix.maxLevel))
	ww.U32(uint32(len(ix.nodes)))
	for i := range ix.nodes {
		nd := &ix.nodes[i]
		ww.I64(int64(nd.id))
		if nd.deleted {
			ww.U8(1)
		} else {
			ww.U8(0)
		}
		ww.U32(uint32(len(nd.neighbors)))
		for _, layer := range nd.neighbors {
			ww.U32(uint32(len(layer)))
			for _, nb := range layer {
				ww.I32(nb)
			}
		}
		if !withVectors && !nd.deleted {
			continue
		}
		if ix.f32 {
			// Float32 nodes persist verbatim: the on-disk format has always
			// been F32-packed, so the two representations share a byte-
			// identical layout and either can read the other's graphs.
			for _, x := range nd.vec32 {
				ww.F32(x)
			}
		} else {
			for _, x := range nd.vec {
				ww.F32(float32(x))
			}
		}
	}
	if !withVectors {
		if ix.quant == nil {
			ww.U8(0)
		} else {
			ww.U8(1)
			ww.U32(uint32(ix.rerank))
			for _, s := range ix.quant.Scales() {
				ww.F64(s)
			}
		}
	}
	err := ww.Flush()
	return ww.Count(), err
}

// Read reconstructs an index serialised by WriteTo. Malformed input —
// truncation, impossible counts, out-of-range adjacency — is reported as
// an error, never a panic, so callers can feed it untrusted bytes.
func Read(r io.Reader) (*Index, error) { return readIndex(r, false, nil) }

// Read32 is Read into a float32 index: node vectors are kept as the
// []float32 the file already stores instead of being widened. Since the
// on-disk layout is F32-packed regardless of the writer's precision,
// any graph can be read at either precision without loss.
func Read32(r io.Reader) (*Index, error) { return readIndex(r, true, nil) }

// ReadLinks reconstructs an index serialised by WriteLinksTo, in float32
// (f32) or float64 representation. row(id) supplies the current row of
// each live node's id, which the index normalises and stores exactly as
// Insert would; it returns nil for an id it does not hold, which is an
// error, as is a zero row. When the stream carries a codebook every node
// is encoded with it. The result answers queries and evolves under
// Insert exactly as the written index did, as long as each row is the
// one the writer last inserted under that id. Malformed input is an
// error, never a panic.
func ReadLinks(r io.Reader, f32 bool, row func(id int) []float64) (*Index, error) {
	if row == nil {
		return nil, fmt.Errorf("ann: ReadLinks needs a row source")
	}
	return readIndex(r, f32, row)
}

// readIndex is the one parser behind Read, Read32 and ReadLinks. A nil
// row reads the full encoding, every node's vector from the stream; a
// non-nil one reads the links-only encoding, live nodes' vectors from
// row and the quantization trailer after the nodes.
func readIndex(r io.Reader, f32 bool, row func(id int) []float64) (*Index, error) {
	wantMagic, wantVersion := graphMagic, uint32(graphVersion)
	if row != nil {
		wantMagic, wantVersion = linksMagic, linksVersion
	}
	rr := wire.NewReader(r)
	magic := make([]byte, len(wantMagic))
	rr.Bytes(magic)
	if rr.Err() == nil && string(magic) != wantMagic {
		return nil, fmt.Errorf("ann: bad graph magic %q", magic)
	}
	if v := rr.U32(); rr.Err() == nil && v != wantVersion {
		return nil, fmt.Errorf("ann: unsupported graph version %d (have %d)", v, wantVersion)
	}
	dim := int(rr.U32())
	if rr.Err() == nil && (dim <= 0 || dim > maxDim) {
		return nil, fmt.Errorf("ann: implausible dimension %d", dim)
	}
	var p Params
	p.M = int(rr.U32())
	p.EfConstruction = int(rr.U32())
	p.EfSearch = int(rr.U32())
	p.Seed = rr.I64()
	entry := rr.I32()
	maxLevel := int(rr.I32())
	numNodes := rr.Count32(maxNodes)
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("ann: reading graph header: %w", err)
	}
	if maxLevel < -1 || maxLevel >= maxLayers {
		return nil, fmt.Errorf("ann: implausible max level %d", maxLevel)
	}
	if entry < -1 || int(entry) >= numNodes || (numNodes > 0) != (entry >= 0) {
		return nil, fmt.Errorf("ann: entry point %d out of range for %d nodes", entry, numNodes)
	}

	ix := New(dim, p)
	ix.f32 = f32
	ix.entry = entry
	ix.maxLevel = maxLevel
	ix.nodes = make([]node, 0, min(numNodes, 1<<16))
	for i := 0; i < numNodes; i++ {
		var nd node
		nd.id = int(rr.I64())
		nd.deleted = rr.U8() != 0
		layers := rr.Count32(maxLayers)
		if err := rr.Err(); err != nil {
			return nil, fmt.Errorf("ann: node %d: %w", i, err)
		}
		if layers < 1 {
			return nil, fmt.Errorf("ann: node %d has no layers", i)
		}
		nd.neighbors = make([][]int32, layers)
		for l := range nd.neighbors {
			fan := rr.Count32(maxLayerFan)
			if err := rr.Err(); err != nil {
				return nil, fmt.Errorf("ann: node %d layer %d: %w", i, l, err)
			}
			layer := make([]int32, fan)
			for j := range layer {
				layer[j] = rr.I32()
			}
			nd.neighbors[l] = layer
		}
		if row == nil || nd.deleted {
			if f32 {
				nd.vec32 = make([]float32, dim)
				for j := range nd.vec32 {
					nd.vec32[j] = rr.F32()
				}
			} else {
				nd.vec = make([]float64, dim)
				for j := range nd.vec {
					nd.vec[j] = float64(rr.F32())
				}
			}
		}
		if err := rr.Err(); err != nil {
			return nil, fmt.Errorf("ann: node %d: %w", i, err)
		}
		ix.nodes = append(ix.nodes, nd)
		if row != nil && !nd.deleted {
			v := row(nd.id)
			if v == nil {
				return nil, fmt.Errorf("ann: node %d: no row for id %d", i, nd.id)
			}
			unit, _, err := ix.unitOf(nd.id, v)
			if err != nil {
				return nil, fmt.Errorf("ann: node %d: %w", i, err)
			}
			ix.setVector(int32(i), unit)
		}
		if !nd.deleted {
			if _, dup := ix.slots[nd.id]; dup {
				return nil, fmt.Errorf("ann: duplicate live id %d", nd.id)
			}
			ix.slots[nd.id] = int32(i)
		} else {
			ix.deleted++
		}
	}

	// Adjacency invariants, checked once every node's layer count is
	// known: a link on layer l must point at a node that exists on layer
	// l, otherwise traversal would index past its adjacency slice.
	for i := range ix.nodes {
		for l, layer := range ix.nodes[i].neighbors {
			for _, nb := range layer {
				if nb < 0 || int(nb) >= numNodes {
					return nil, fmt.Errorf("ann: node %d layer %d links to missing slot %d", i, l, nb)
				}
				if len(ix.nodes[nb].neighbors) <= l {
					return nil, fmt.Errorf("ann: node %d layer %d links to slot %d which stops at layer %d",
						i, l, nb, len(ix.nodes[nb].neighbors)-1)
				}
			}
		}
	}
	if entry >= 0 && len(ix.nodes[entry].neighbors) <= maxLevel {
		return nil, fmt.Errorf("ann: entry point %d stops at layer %d, below max level %d",
			entry, len(ix.nodes[entry].neighbors)-1, maxLevel)
	}

	if row != nil {
		if err := ix.readQuantTrailer(rr); err != nil {
			return nil, err
		}
	}

	// Replay the level generator: one draw per slot (a move re-links in
	// its slot without drawing), so future inserts continue the sequence
	// the original index would have produced.
	ix.rng = rand.New(rand.NewSource(ix.params.Seed))
	for i := 0; i < numNodes; i++ {
		ix.rng.Float64()
	}
	return ix, nil
}

// readQuantTrailer reads the links-only encoding's quantization trailer
// and, when it carries a codebook, encodes every node with it.
func (ix *Index) readQuantTrailer(rr *wire.Reader) error {
	quantized := rr.U8()
	if err := rr.Err(); err != nil {
		return fmt.Errorf("ann: reading quant trailer: %w", err)
	}
	switch quantized {
	case 0:
		return nil
	case 1:
	default:
		return fmt.Errorf("ann: bad quant trailer flag %d", quantized)
	}
	rerank := int(rr.U32())
	scales := make([]float64, ix.dim)
	for d := range scales {
		scales[d] = rr.F64()
	}
	if err := rr.Err(); err != nil {
		return fmt.Errorf("ann: reading quant trailer: %w", err)
	}
	if rerank <= 0 || rerank > 1<<16 {
		return fmt.Errorf("ann: implausible rerank factor %d", rerank)
	}
	cb, err := quant.NewCodebook(scales)
	if err != nil {
		return fmt.Errorf("ann: %w", err)
	}
	ix.installQuant(cb, rerank)
	return nil
}
