package embed

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"github.com/retrodb/retro/internal/vec"
)

func TestAddLookup(t *testing.T) {
	s := NewStore(3)
	id := s.Add("movie", []float64{1, 2, 3})
	if id != 0 {
		t.Fatalf("first id = %d, want 0", id)
	}
	if s.Len() != 1 || s.Dim() != 3 {
		t.Fatal("Len/Dim wrong")
	}
	v, ok := s.VectorOf("movie")
	if !ok || v[1] != 2 {
		t.Fatal("VectorOf failed")
	}
	if s.Word(0) != "movie" {
		t.Fatal("Word failed")
	}
	if _, ok := s.ID("nope"); ok {
		t.Fatal("missing word found")
	}
}

func TestAddOverwrite(t *testing.T) {
	s := NewStore(2)
	s.Add("a", []float64{1, 1})
	id := s.Add("a", []float64{9, 9})
	if id != 0 || s.Len() != 1 {
		t.Fatal("overwrite created new entry")
	}
	if s.Vector(0)[0] != 9 {
		t.Fatal("overwrite did not replace vector")
	}
}

func TestAddDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStore(2).Add("x", []float64{1})
}

func TestGrowthManyWords(t *testing.T) {
	s := NewStore(4)
	rng := rand.New(rand.NewSource(5))
	vecs := make([][]float64, 500)
	for i := range vecs {
		vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		s.Add(word(i), vecs[i])
	}
	for i := range vecs {
		got, ok := s.VectorOf(word(i))
		if !ok {
			t.Fatalf("word %d missing", i)
		}
		for j := range got {
			if got[j] != vecs[i][j] {
				t.Fatalf("word %d vector corrupted after growth", i)
			}
		}
	}
	if s.Matrix().Rows != 500 {
		t.Fatalf("matrix rows = %d", s.Matrix().Rows)
	}
}

// After Reserve(n) the row matrix is never reallocated while the store
// grows to n rows, at either precision, and a snapshot frozen before the
// reservation keeps reading its own rows.
func TestReserveAllocatesRowsOnce(t *testing.T) {
	for _, p := range []Precision{F64, F32} {
		s := NewStoreWithPrecision(4, p)
		s.Add(word(0), []float64{1, 2, 3, 4})
		frozen := s.Freeze()
		s.Reserve(300)
		base := func() *byte {
			if p == F32 {
				return (*byte)(unsafe.Pointer(&s.Matrix32().Data[0]))
			}
			return (*byte)(unsafe.Pointer(&s.Matrix().Data[0]))
		}
		first := base()
		for i := 1; i < 300; i++ {
			s.Add(word(i), []float64{float64(i), 0, 0, 1})
			if base() != first {
				t.Fatalf("%v: row matrix reallocated at row %d after Reserve(300)", p, i)
			}
		}
		if v, ok := s.VectorOf(word(0)); !ok || v[0] != 1 || v[3] != 4 {
			t.Fatalf("%v: row 0 = %v after growth", p, v)
		}
		if frozen.Len() != 1 || frozen.Vector(0)[1] != 2 {
			t.Fatalf("%v: the frozen snapshot changed: len %d", p, frozen.Len())
		}
		s.Reserve(10) // never shrinks
		if s.Len() != 300 {
			t.Fatalf("%v: Len = %d after a smaller Reserve", p, s.Len())
		}
	}
}

func word(i int) string {
	return "w" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestSetVectorAndMatrixView(t *testing.T) {
	s := NewStore(2)
	s.Add("a", []float64{1, 2})
	s.SetVector(0, []float64{5, 6})
	if s.Vector(0)[0] != 5 {
		t.Fatal("SetVector failed")
	}
	m := s.Matrix()
	m.Row(0)[0] = 42
	if s.Vector(0)[0] != 42 {
		t.Fatal("Matrix should be a live view")
	}
}

func TestClone(t *testing.T) {
	s := NewStore(2)
	s.Add("a", []float64{1, 2})
	c := s.Clone()
	c.SetVector(0, []float64{9, 9})
	if s.Vector(0)[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestNormalizeAll(t *testing.T) {
	s := NewStore(2)
	s.Add("a", []float64{3, 4})
	s.Add("zero", []float64{0, 0})
	s.NormalizeAll()
	if math.Abs(vec.Norm(s.Vector(0))-1) > 1e-12 {
		t.Fatal("not normalised")
	}
	if !vec.IsZero(s.Vector(1)) {
		t.Fatal("zero vector should stay zero")
	}
}

func TestTopK(t *testing.T) {
	s := NewStore(2)
	s.Add("east", []float64{1, 0})
	s.Add("northeast", []float64{1, 1})
	s.Add("north", []float64{0, 1})
	s.Add("west", []float64{-1, 0})
	s.Add("null", []float64{0, 0})

	got := s.TopK([]float64{1, 0.1}, 2, nil)
	if len(got) != 2 || got[0].Word != "east" || got[1].Word != "northeast" {
		t.Fatalf("TopK = %+v", got)
	}
	if got[0].Score < got[1].Score {
		t.Fatal("scores not descending")
	}
}

func TestTopKSkipAndZeroQuery(t *testing.T) {
	s := NewStore(2)
	s.Add("a", []float64{1, 0})
	s.Add("b", []float64{1, 0})
	got := s.TopK([]float64{1, 0}, 5, func(id int) bool { return id == 0 })
	if len(got) != 1 || got[0].Word != "b" {
		t.Fatalf("skip failed: %+v", got)
	}
	if s.TopK([]float64{0, 0}, 3, nil) != nil {
		t.Fatal("zero query should return nil")
	}
	if s.TopK([]float64{1, 0}, 0, nil) != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	s := NewStore(2)
	s.Add("t0", []float64{1, 0})
	s.Add("t1", []float64{1, 0})
	s.Add("t2", []float64{2, 0}) // same cosine as t0/t1
	got := s.TopK([]float64{1, 0}, 2, nil)
	if got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("tie-break not by ascending id: %+v", got)
	}
}

func TestAnalogy(t *testing.T) {
	s := NewStore(2)
	s.Add("king", []float64{1, 1})
	s.Add("man", []float64{1, 0})
	s.Add("woman", []float64{0.9, 0.05})
	s.Add("queen", []float64{0.9, 1})
	got, err := s.Analogy("king", "man", "woman", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Word != "queen" {
		t.Fatalf("Analogy = %+v", got)
	}
	if _, err := s.Analogy("king", "man", "missing", 1); err == nil {
		t.Fatal("expected error for missing term")
	}
}

func TestTextRoundTrip(t *testing.T) {
	s := NewStore(3)
	s.Add("alpha", []float64{1.5, -2.25, 0})
	s.Add("beta_gamma", []float64{0.125, 3, -1})
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Dim() != 3 {
		t.Fatal("round-trip shape wrong")
	}
	v, _ := got.VectorOf("beta_gamma")
	if v[0] != 0.125 || v[2] != -1 {
		t.Fatalf("round-trip values wrong: %v", v)
	}
}

func TestWriteTextRejectsWhitespaceWords(t *testing.T) {
	s := NewStore(1)
	s.Add("two words", []float64{1})
	if err := s.WriteText(&bytes.Buffer{}); err == nil {
		t.Fatal("expected error for word containing space")
	}
}

func TestReadTextErrors(t *testing.T) {
	if _, err := ReadText(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := ReadText(strings.NewReader("word\n")); err == nil {
		t.Fatal("value-less line should error")
	}
	if _, err := ReadText(strings.NewReader("a 1 2\nb 1\n")); err == nil {
		t.Fatal("dim mismatch should error")
	}
	if _, err := ReadText(strings.NewReader("a xx\n")); err == nil {
		t.Fatal("non-numeric value should error")
	}
}

func TestReadTextSkipsBlankLines(t *testing.T) {
	got, err := ReadText(strings.NewReader("\na 1 2\n\nb 3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("Len = %d", got.Len())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := NewStore(4)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		s.Add(word(i), []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() || got.Dim() != s.Dim() {
		t.Fatal("binary round-trip shape wrong")
	}
	for i := 0; i < s.Len(); i++ {
		if got.Word(i) != s.Word(i) {
			t.Fatalf("word %d mismatch", i)
		}
		a, b := got.Vector(i), s.Vector(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("vector %d component %d mismatch", i, j)
			}
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not an embedding file at all")); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := ReadBinary(strings.NewReader("RETRO")); err == nil {
		t.Fatal("expected short-read error")
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	s := NewStore(2)
	s.Add("a", []float64{1, 2})
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestCombineConcat(t *testing.T) {
	a := NewStore(2)
	a.Add("x", []float64{1, 2})
	a.Add("only_a", []float64{3, 4})
	b := NewStore(3)
	b.Add("x", []float64{5, 6, 7})
	b.Add("only_b", []float64{8, 9, 10})

	out, err := Combine(a, b, Concat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim() != 5 || out.Len() != 2 {
		t.Fatalf("concat shape: dim=%d len=%d", out.Dim(), out.Len())
	}
	v, _ := out.VectorOf("x")
	want := []float64{1, 2, 5, 6, 7}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("concat vector = %v", v)
		}
	}
	// Missing in b -> zero tail (OOV null-vector convention).
	v2, _ := out.VectorOf("only_a")
	if v2[2] != 0 || v2[3] != 0 || v2[4] != 0 {
		t.Fatalf("missing-word tail should be zero: %v", v2)
	}
	if _, ok := out.VectorOf("only_b"); ok {
		t.Fatal("words only in b must be dropped")
	}
}

func TestCombineAverage(t *testing.T) {
	a := NewStore(2)
	a.Add("x", []float64{2, 4})
	b := NewStore(2)
	b.Add("x", []float64{4, 8})
	out, err := Combine(a, b, Average)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := out.VectorOf("x")
	if v[0] != 3 || v[1] != 6 {
		t.Fatalf("average = %v", v)
	}

	c := NewStore(3)
	if _, err := Combine(a, c, Average); err == nil {
		t.Fatal("dim mismatch should error for Average")
	}
}

func TestCombineModeString(t *testing.T) {
	if Concat.String() != "concat" || Average.String() != "average" {
		t.Fatal("String() wrong")
	}
	if CombineMode(99).String() == "" {
		t.Fatal("unknown mode should render")
	}
}
