package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/retrodb/retro/internal/reldb"
)

func fixtureSegment() *Segment {
	return &Segment{
		FromEpoch: 2, ToEpoch: 3, WALSeq: 9,
		Batches: []Batch{
			{Table: "movies", Rows: testRows("matrix", "alien")},
			{Table: "people", Rows: testRows("lynch")},
		},
		Vectors: []VectorDelta{
			{Key: "movies.title\x00matrix", Vec: []float64{0.25, -1.5, 3.75}},
			{Key: "movies.country\x00usa", Vec: []float64{1e-300, 42}},
		},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	s := fixtureSegment()
	got, err := DecodeSegment(EncodeSegment(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.FromEpoch != s.FromEpoch || got.ToEpoch != s.ToEpoch || got.WALSeq != s.WALSeq {
		t.Fatalf("header round trip = %+v", got)
	}
	if len(got.Batches) != 2 || got.Batches[0].Table != "movies" ||
		!sameRows(got.Batches[0].Rows, s.Batches[0].Rows) ||
		!sameRows(got.Batches[1].Rows, s.Batches[1].Rows) {
		t.Fatalf("batches round trip = %+v", got.Batches)
	}
	if len(got.Vectors) != 2 {
		t.Fatalf("vectors round trip = %+v", got.Vectors)
	}
	for i, v := range got.Vectors {
		// Full float64 precision: the delta path must reproduce the
		// writer's vectors bit-for-bit.
		if v.Key != s.Vectors[i].Key || !slices.Equal(v.Vec, s.Vectors[i].Vec) {
			t.Fatalf("vector %d = %+v, want %+v", i, v, s.Vectors[i])
		}
	}
}

func fixtureSegmentF32() *Segment {
	return &Segment{
		FromEpoch: 2, ToEpoch: 3, WALSeq: 9,
		Batches: []Batch{
			{Table: "movies", Rows: testRows("matrix")},
		},
		Vectors: []VectorDelta{
			{Key: "movies.title\x00matrix", Vec32: []float32{0.25, -1.5, 3.75}},
			{Key: "movies.country\x00usa", Vec: []float64{1e-300, 42}},
		},
	}
}

func TestSegmentF32RoundTrip(t *testing.T) {
	s := fixtureSegmentF32()
	data := EncodeSegment(s)
	// A float32 delta switches the file to format version 2.
	if v := binary.LittleEndian.Uint32(data[len(segMagic):]); v != segVersionF32 {
		t.Fatalf("segment with f32 deltas encoded as version %d", v)
	}
	got, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vectors) != 2 {
		t.Fatalf("vectors round trip = %+v", got.Vectors)
	}
	if !slices.Equal(got.Vectors[0].Vec32, s.Vectors[0].Vec32) || got.Vectors[0].Vec != nil {
		t.Fatalf("f32 vector = %+v, want %+v", got.Vectors[0], s.Vectors[0])
	}
	// Mixed representation: the f64 delta in the same file survives at
	// full float64 precision.
	if !slices.Equal(got.Vectors[1].Vec, s.Vectors[1].Vec) || got.Vectors[1].Vec32 != nil {
		t.Fatalf("f64 vector = %+v, want %+v", got.Vectors[1], s.Vectors[1])
	}
	want64 := []float64{0.25, -1.5, 3.75}
	if !slices.Equal(got.Vectors[0].Float64(), want64) {
		t.Fatalf("Float64() = %v, want %v", got.Vectors[0].Float64(), want64)
	}
}

func TestSegmentF64StaysVersion1(t *testing.T) {
	// An all-float64 segment must keep the original format so F64
	// engines produce byte-identical files to what they always wrote.
	data := EncodeSegment(fixtureSegment())
	if v := binary.LittleEndian.Uint32(data[len(segMagic):]); v != segVersion {
		t.Fatalf("f64-only segment encoded as version %d, want %d", v, segVersion)
	}
}

// fixtureSegmentGraph is fixtureSegment plus a graph section.
func fixtureSegmentGraph() *Segment {
	s := fixtureSegment()
	s.Graph = &Graph{
		Keys:  []string{"movies.title\x00matrix", "movies.country\x00usa", "movies.title\x00alien"},
		Links: []byte("RANL\x01\x00\x00\x00opaque to storage"),
	}
	return s
}

func TestSegmentGraphRoundTrip(t *testing.T) {
	s := fixtureSegmentGraph()
	data := EncodeSegment(s)
	if v := binary.LittleEndian.Uint32(data[len(segMagic):]); v != segVersionG {
		t.Fatalf("segment with a graph encoded as version %d, want %d", v, segVersionG)
	}
	got, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph == nil || !slices.Equal(got.Graph.Keys, s.Graph.Keys) || !bytes.Equal(got.Graph.Links, s.Graph.Links) {
		t.Fatalf("graph round trip = %+v, want %+v", got.Graph, s.Graph)
	}
	// The rows and the float64 vectors before the graph are untouched.
	if len(got.Batches) != 2 || !sameRows(got.Batches[0].Rows, s.Batches[0].Rows) {
		t.Fatalf("batches round trip = %+v", got.Batches)
	}
	for i, v := range got.Vectors {
		if v.Key != s.Vectors[i].Key || !slices.Equal(v.Vec, s.Vectors[i].Vec) {
			t.Fatalf("vector %d = %+v, want %+v", i, v, s.Vectors[i])
		}
	}
	// Without a graph the same segment keeps its version 1 bytes.
	s.Graph = nil
	if v := binary.LittleEndian.Uint32(EncodeSegment(s)[len(segMagic):]); v != segVersion {
		t.Fatalf("graph-free segment encoded as version %d", v)
	}
	if got, err := DecodeSegment(EncodeSegment(s)); err != nil || got.Graph != nil {
		t.Fatalf("graph-free segment decoded with graph %+v, err %v", got.Graph, err)
	}
}

func TestSegmentGraphRejectsLyingLength(t *testing.T) {
	data := EncodeSegment(fixtureSegmentGraph())
	links := fixtureSegmentGraph().Graph.Links
	// The links length is the u64 right before the links bytes.
	off := bytes.Index(data, links) - 8
	c := slices.Clone(data)
	binary.LittleEndian.PutUint64(c[off:], 1<<40)
	payload := c[len(segMagic)+4+8+4:]
	binary.LittleEndian.PutUint32(c[len(segMagic)+4+8:], crc32.ChecksumIEEE(payload))
	if _, err := DecodeSegment(c); err == nil || !strings.Contains(err.Error(), "links length") {
		t.Fatalf("err = %v, want a links length error", err)
	}
}

func TestSegmentRejectsUnknownRepresentation(t *testing.T) {
	data := EncodeSegment(fixtureSegmentF32())
	// The first vector's representation byte follows the payload header
	// (3×u64 epochs/seq, batch count + one batch) and its key; rather
	// than hand-computing the offset, find the key and flip the byte
	// right after it.
	key := []byte("movies.title\x00matrix")
	off := bytes.Index(data, key)
	if off < 0 {
		t.Fatal("key not found in encoded segment")
	}
	c := slices.Clone(data)
	c[off+len(key)] = 9
	// Fix the CRC up so the representation check (not the checksum) is
	// what rejects the file.
	payload := c[len(segMagic)+4+8+4:]
	binary.LittleEndian.PutUint32(c[len(segMagic)+4+8:], crc32.ChecksumIEEE(payload))
	_, err := DecodeSegment(c)
	if err == nil || !strings.Contains(err.Error(), "unknown representation") {
		t.Fatalf("err = %v, want unknown representation", err)
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	data := EncodeSegment(fixtureSegment())
	for i := 0; i < len(data); i += 7 {
		c := slices.Clone(data)
		c[i] ^= 0xff
		if _, err := DecodeSegment(c); err == nil {
			t.Fatalf("bit flip at offset %d accepted", i)
		}
	}
	if _, err := DecodeSegment(data[:len(data)/2]); err == nil {
		t.Fatal("truncated segment accepted")
	}
}

func TestSegmentFileAndInfo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-000003.seg")
	s := fixtureSegment()
	if err := WriteSegmentFile(path, s, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ToEpoch != 3 {
		t.Fatalf("read back = %+v", got)
	}
	info, err := ReadSegmentInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.FromEpoch != 2 || info.ToEpoch != 3 || info.WALSeq != 9 || info.Rows != 3 || info.Vectors != 2 || info.Bytes <= 0 || info.GraphBytes != 0 {
		t.Fatalf("info = %+v", info)
	}
	withGraph := fixtureSegmentGraph()
	if err := WriteSegmentFile(path, withGraph, nil); err != nil {
		t.Fatal(err)
	}
	info, err = ReadSegmentInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	// Version 3 also tags each vector with its representation byte.
	graphless := int64(len(EncodeSegment(fixtureSegment()))) + int64(len(withGraph.Vectors))
	if info.GraphBytes != withGraph.Graph.Bytes() || info.Bytes != graphless+info.GraphBytes {
		t.Fatalf("graph bytes %d of %d, want %d of %d", info.GraphBytes, info.Bytes, withGraph.Graph.Bytes(), graphless+withGraph.Graph.Bytes())
	}
}

func TestCloneBatchIsDeep(t *testing.T) {
	rows := [][]reldb.Value{{reldb.Text("a")}}
	b := CloneBatch("movies", rows)
	rows[0][0] = reldb.Text("mutated")
	if b.Rows[0][0].Str != "a" {
		t.Fatal("CloneBatch shared row storage with the caller")
	}
	if b.NumRows() != 1 {
		t.Fatalf("NumRows = %d", b.NumRows())
	}
}
