// Delta snapshot segments: one file per checkpoint, carrying everything
// that changed since the previous checkpoint epoch — the committed rows
// (so the WAL prefix they came from can be discarded) and the store
// vectors the frozen-view epoch stamping marked dirty, at the writer's
// store precision (float64 rows from an F64 store, float32 words from
// an F32 store), so applying a segment reproduces the writer's vectors
// bit-for-bit. Checkpoint write cost is O(delta), not O(model);
// recovery applies the chain in order over the base.
//
// A segment may also carry the writer's HNSW graph at checkpoint time
// (Graph): its vocabulary in store id order, so a reader maps the
// graph's ids by key, and the index's links-only encoding (see
// ann.Index.WriteLinksTo), whose node vectors a reader recomputes from
// the rows the base and the chain already hold. The graph commits with
// the rows it indexes, through the same manifest rename, and travels to
// followers with the segment.
//
// Format versions: version 1 frames every vector as float64 and is
// still written whenever no float32 delta is present, so F64 engines
// keep producing byte-identical files. Version 2 adds a per-vector
// representation byte and is emitted only when an F32 store
// checkpointed at least one row. Version 3 is version 2 plus a trailing
// graph section, emitted only when the segment carries a graph. Readers
// accept all three.

package storage

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/retrodb/retro/internal/wire"
)

const (
	segMagic      = "RETROSEG"
	segVersion    = 1 // float64-only vector frames
	segVersionF32 = 2 // per-vector representation byte (f64 or f32)
	segVersionG   = 3 // version 2 plus a trailing graph section

	maxBatches    = 1 << 24
	maxVectors    = 1 << 28
	maxKeyLen     = 1 << 20
	maxSegDim     = 1 << 16
	maxSegPayload = int64(1) << 36
)

// Segment is one checkpoint's delta over the previous epoch.
type Segment struct {
	// FromEpoch..ToEpoch is the half-open epoch window this delta
	// covers: rows stamped in [FromEpoch, ToEpoch) at checkpoint time.
	FromEpoch uint64
	ToEpoch   uint64
	// WALSeq is the log high-water mark at checkpoint time: the batches
	// below are exactly the WAL records with seq <= WALSeq not covered
	// by an earlier segment.
	WALSeq uint64
	// Batches are the committed insert batches, in commit order.
	Batches []Batch
	// Vectors are the store rows that changed in the window, keyed by
	// store word, at the writer's store precision.
	Vectors []VectorDelta
	// Graph is the writer's built HNSW graph at checkpoint time, or nil
	// when its store had none.
	Graph *Graph
}

// Graph is a checkpointed HNSW graph: the writer's vocabulary in store
// id order and the index in its links-only encoding, whose ids are
// positions in Keys.
type Graph struct {
	Keys  []string
	Links []byte
}

// Bytes returns the size of the graph section in the segment file.
func (g *Graph) Bytes() int64 {
	n := int64(4 + 8 + len(g.Links))
	for _, k := range g.Keys {
		n += int64(4 + len(k))
	}
	return n
}

// VectorDelta is one changed store row: exactly one of Vec (an F64
// store's row) or Vec32 (an F32 store's row, persisted without a
// widening round trip) is set.
type VectorDelta struct {
	Key   string
	Vec   []float64
	Vec32 []float32
}

// Float64 returns the delta's vector widened to float64 — the form
// Store.Add consumes on recovery. Applying a Vec32 delta to an F32
// store is lossless: the store narrows the widened values straight back
// to the persisted float32 words.
func (v *VectorDelta) Float64() []float64 {
	if v.Vec32 == nil {
		return v.Vec
	}
	out := make([]float64, len(v.Vec32))
	for i, x := range v.Vec32 {
		out[i] = float64(x)
	}
	return out
}

// SegmentInfo summarises a segment without retaining its content.
type SegmentInfo struct {
	Name      string
	FromEpoch uint64
	ToEpoch   uint64
	WALSeq    uint64
	Rows      int
	Vectors   int
	Bytes     int64
	// GraphBytes is the size of the segment's graph section, 0 when it
	// carries no graph.
	GraphBytes int64
}

// EncodeSegment renders a segment to its wire form. Segments whose
// vectors are all float64 use format version 1 (byte-identical to what
// this package has always written); a float32 delta switches the file
// to version 2, which tags each vector with its representation, and a
// graph to version 3.
func EncodeSegment(s *Segment) []byte {
	version := uint32(segVersion)
	for i := range s.Vectors {
		if s.Vectors[i].Vec32 != nil {
			version = segVersionF32
			break
		}
	}
	if s.Graph != nil {
		version = segVersionG
	}
	var payload bytes.Buffer
	w := wire.NewWriter(&payload)
	w.U64(s.FromEpoch)
	w.U64(s.ToEpoch)
	w.U64(s.WALSeq)
	w.U32(uint32(len(s.Batches)))
	for i := range s.Batches {
		encodeBatch(w, &s.Batches[i])
	}
	w.U32(uint32(len(s.Vectors)))
	for _, v := range s.Vectors {
		w.String(v.Key)
		if version >= segVersionF32 {
			if v.Vec32 != nil {
				w.U8(1)
				w.U32(uint32(len(v.Vec32)))
				for _, x := range v.Vec32 {
					w.F32(x)
				}
				continue
			}
			w.U8(0)
		}
		w.U32(uint32(len(v.Vec)))
		for _, x := range v.Vec {
			w.F64(x)
		}
	}
	if s.Graph != nil {
		w.U32(uint32(len(s.Graph.Keys)))
		for _, k := range s.Graph.Keys {
			w.String(k)
		}
		w.U64(uint64(len(s.Graph.Links)))
		w.Bytes(s.Graph.Links)
	}
	_ = w.Flush()

	var out bytes.Buffer
	fw := wire.NewWriter(&out)
	fw.Bytes([]byte(segMagic))
	fw.U32(version)
	fw.U64(uint64(payload.Len()))
	fw.U32(crc32.ChecksumIEEE(payload.Bytes()))
	fw.Bytes(payload.Bytes())
	_ = fw.Flush()
	return out.Bytes()
}

// DecodeSegment parses a segment written by EncodeSegment. Corruption
// is an error, never a panic.
func DecodeSegment(data []byte) (*Segment, error) {
	r := wire.NewReader(bytes.NewReader(data))
	magic := make([]byte, len(segMagic))
	r.Bytes(magic)
	if r.Err() == nil && string(magic) != segMagic {
		return nil, fmt.Errorf("storage: bad segment magic %q", magic)
	}
	version := r.U32()
	if r.Err() == nil && (version < segVersion || version > segVersionG) {
		return nil, fmt.Errorf("storage: unsupported segment version %d", version)
	}
	n := r.U64()
	if r.Err() == nil && (n > uint64(maxSegPayload) || n > uint64(len(data))) {
		return nil, fmt.Errorf("storage: segment payload length %d exceeds file size %d", n, len(data))
	}
	crc := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("storage: segment header: %w", err)
	}
	payload := make([]byte, n)
	r.Bytes(payload)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("storage: segment payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("storage: segment checksum mismatch (want %08x, got %08x)", crc, got)
	}

	pr := wire.NewReader(bytes.NewReader(payload))
	s := &Segment{}
	s.FromEpoch = pr.U64()
	s.ToEpoch = pr.U64()
	s.WALSeq = pr.U64()
	batches := pr.Count32(maxBatches)
	for i := 0; i < batches && pr.Err() == nil; i++ {
		s.Batches = append(s.Batches, decodeBatch(pr))
	}
	vectors := pr.Count32(maxVectors)
	for i := 0; i < vectors && pr.Err() == nil; i++ {
		key := pr.String(maxKeyLen)
		kind := uint8(0)
		if version >= segVersionF32 {
			kind = pr.U8()
			if pr.Err() == nil && kind > 1 {
				return nil, fmt.Errorf("storage: segment vector %d has unknown representation %d", i, kind)
			}
		}
		dim := pr.Count32(maxSegDim)
		if kind == 1 {
			vec := make([]float32, 0, dim)
			for d := 0; d < dim && pr.Err() == nil; d++ {
				vec = append(vec, pr.F32())
			}
			s.Vectors = append(s.Vectors, VectorDelta{Key: key, Vec32: vec})
			continue
		}
		vec := make([]float64, 0, dim)
		for d := 0; d < dim && pr.Err() == nil; d++ {
			vec = append(vec, pr.F64())
		}
		s.Vectors = append(s.Vectors, VectorDelta{Key: key, Vec: vec})
	}
	if version >= segVersionG && pr.Err() == nil {
		s.Graph = decodeGraph(pr, n)
	}
	if err := pr.Err(); err != nil {
		return nil, fmt.Errorf("storage: segment body: %w", err)
	}
	return s, nil
}

// decodeGraph reads a graph section from a payload of size bytes. The
// links stay opaque here: the ann reader validates them.
func decodeGraph(pr *wire.Reader, size uint64) *Graph {
	g := &Graph{}
	keys := pr.Count32(maxVectors)
	g.Keys = make([]string, 0, min(keys, 1<<16))
	for i := 0; i < keys && pr.Err() == nil; i++ {
		g.Keys = append(g.Keys, pr.String(maxKeyLen))
	}
	links := pr.U64()
	if pr.Err() == nil && links > size {
		pr.Fail(fmt.Errorf("storage: graph links length %d exceeds payload size %d", links, size))
	}
	if pr.Err() != nil {
		return nil
	}
	g.Links = make([]byte, links)
	pr.Bytes(g.Links)
	return g
}

// WriteSegmentFile persists a segment atomically (temp + fsync +
// rename through sys).
func WriteSegmentFile(path string, s *Segment, sys *Sys) error {
	data := EncodeSegment(s)
	return WriteFileAtomic(path, sys, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// ReadSegmentFile loads a segment.
func ReadSegmentFile(path string) (*Segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSegment(data)
}

// ReadSegmentInfo summarises a segment file (for `retro storage info`).
func ReadSegmentInfo(path string) (SegmentInfo, error) {
	s, err := ReadSegmentFile(path)
	if err != nil {
		return SegmentInfo{}, err
	}
	info := SegmentInfo{
		FromEpoch: s.FromEpoch, ToEpoch: s.ToEpoch, WALSeq: s.WALSeq,
		Vectors: len(s.Vectors),
	}
	if s.Graph != nil {
		info.GraphBytes = s.Graph.Bytes()
	}
	for i := range s.Batches {
		info.Rows += len(s.Batches[i].Rows)
	}
	if fi, err := os.Stat(path); err == nil {
		info.Bytes = fi.Size()
	}
	return info, nil
}
