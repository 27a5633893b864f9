package storage

import (
	"bytes"
	"slices"
	"testing"

	"github.com/retrodb/retro/internal/wire"
)

// FuzzManifest throws arbitrary bytes at the manifest decoder: it must
// either return an error or a manifest that re-encodes decodably — and
// never panic or over-allocate on lying length fields.
func FuzzManifest(f *testing.F) {
	f.Add(EncodeManifest(&Manifest{Epoch: 1, Base: "base-000001.snap", WAL: "wal-000001.wal"}))
	f.Add(EncodeManifest(&Manifest{
		Epoch: 99, WALSeq: 12345,
		Base: "base-000042.snap", WAL: "wal-000099.wal",
		Segments: []string{"seg-000043.seg", "seg-000050.seg", "seg-000099.seg"},
	}))
	f.Add([]byte("RETROMFT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		got, err := DecodeManifest(EncodeManifest(m))
		if err != nil {
			t.Fatalf("accepted manifest did not re-encode: %v", err)
		}
		if got.Epoch != m.Epoch || got.WALSeq != m.WALSeq || got.Base != m.Base ||
			got.WAL != m.WAL || !slices.Equal(got.Segments, m.Segments) {
			t.Fatalf("re-encode changed the manifest: %+v vs %+v", got, m)
		}
	})
}

// FuzzWALRecord fuzzes the batch payload codec shared by WAL records and
// segment batches: arbitrary bytes must decode to an error or to a batch
// that round-trips.
func FuzzWALRecord(f *testing.F) {
	seed := func(b Batch) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		encodeBatch(w, &b)
		_ = w.Flush()
		return buf.Bytes()
	}
	f.Add(seed(CloneBatch("movies", testRows("matrix"))))
	f.Add(seed(CloneBatch("people", testRows("lynch", "kaurismaki"))))
	f.Add(seed(Batch{Table: "empty"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(bytes.NewReader(data))
		b := decodeBatch(r)
		if r.Err() != nil {
			return
		}
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		encodeBatch(w, &b)
		if err := w.Flush(); err != nil {
			t.Fatalf("accepted batch did not re-encode: %v", err)
		}
		r2 := wire.NewReader(bytes.NewReader(buf.Bytes()))
		b2 := decodeBatch(r2)
		if r2.Err() != nil {
			t.Fatalf("re-encoded batch did not decode: %v", r2.Err())
		}
		// Compare the canonical encodings, not the structs: a NaN float
		// survives the codec bit-exactly but never compares equal.
		var buf2 bytes.Buffer
		w2 := wire.NewWriter(&buf2)
		encodeBatch(w2, &b2)
		_ = w2.Flush()
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("batch round trip changed the content")
		}
	})
}

// FuzzSegment covers the outer segment frame (magic, version, length,
// checksum) over the batch codec and the graph section.
func FuzzSegment(f *testing.F) {
	f.Add(EncodeSegment(fixtureSegment()))
	f.Add(EncodeSegment(fixtureSegmentF32()))
	f.Add(EncodeSegment(fixtureSegmentGraph()))
	f.Add(EncodeSegment(&Segment{FromEpoch: 1, ToEpoch: 2}))
	f.Add([]byte("RETROSEG"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSegment(data)
		if err != nil {
			return
		}
		if _, err := DecodeSegment(EncodeSegment(s)); err != nil {
			t.Fatalf("accepted segment did not re-encode: %v", err)
		}
	})
}
