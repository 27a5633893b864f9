package ann

import (
	"bytes"
	"testing"
)

// fuzzRow is the row source FuzzReadLinks reads against: a fixed non-zero
// 8-dimensional row for each of the first 64 ids, nothing past them.
func fuzzRow(id int) []float64 {
	if id < 0 || id >= 64 {
		return nil
	}
	v := make([]float64, 8)
	for d := range v {
		v[d] = float64((id*7+d*3)%11) - 5
	}
	v[0] = float64(id + 1)
	return v
}

// FuzzReadLinks throws arbitrary bytes at the links-only graph reader:
// it must return an error or an index that answers a query and
// re-encodes to the same bytes — never panic on links that leave the
// graph or skip a layer, a bad entry point or a lying count.
func FuzzReadLinks(f *testing.F) {
	seed := func(quantized bool, deleted int) []byte {
		ix := New(8, Params{M: 4, EfConstruction: 16})
		if quantized {
			ix.TrainSQ8(64, fuzzRow, 2)
		}
		for id := 0; id < 64; id++ {
			if err := ix.Insert(id, fuzzRow(id)); err != nil {
				f.Fatal(err)
			}
		}
		for id := 0; id < deleted; id++ {
			ix.Delete(id)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteLinksTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(false, 0))
	f.Add(seed(true, 3))
	var empty bytes.Buffer
	if _, err := New(8, Params{}).WriteLinksTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte(linksMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadLinks(bytes.NewReader(data), false, fuzzRow)
		if err != nil {
			return
		}
		ix.SetEfSearch(16) // a lying beam width must not size the query
		if ix.Dim() == 8 {
			ix.TopK(fuzzRow(1), 3, nil)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteLinksTo(&buf); err != nil {
			t.Fatalf("accepted graph did not re-encode: %v", err)
		}
		again, err := ReadLinks(bytes.NewReader(buf.Bytes()), false, fuzzRow)
		if err != nil {
			t.Fatalf("re-encoded graph did not decode: %v", err)
		}
		var buf2 bytes.Buffer
		if _, err := again.WriteLinksTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("links round trip changed the graph")
		}
	})
}
