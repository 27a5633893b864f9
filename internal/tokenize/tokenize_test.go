package tokenize

import (
	"math"
	"reflect"
	"testing"

	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/vec"
)

func testStore() *embed.Store {
	s := embed.NewStore(2)
	s.Add("bank", []float64{1, 0})
	s.Add("account", []float64{0, 1})
	s.Add("bank_account", []float64{10, 10})
	s.Add("luc_besson", []float64{2, 2})
	s.Add("movie", []float64{-1, 0})
	s.Add("5th", []float64{0, -1})
	s.Add("element", []float64{0, -3})
	return s
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Bank Account", []string{"bank", "account"}},
		{"Luc_Besson", []string{"luc", "besson"}},
		{"The 5th Element!", []string{"the", "5th", "element"}},
		{"", nil},
		{"--- ,,, ", nil},
		{"Amélie", []string{"amélie"}},
	}
	for _, c := range cases {
		if got := Normalize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Normalize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeLongestMatch(t *testing.T) {
	tok := New(testStore())
	// "bank account" must resolve to the phrase id, not the two words.
	ids := tok.Tokenize("bank account")
	if len(ids) != 1 || tok.Store().Word(ids[0]) != "bank_account" {
		t.Fatalf("Tokenize(bank account) = %v", ids)
	}
	// "bank balance" falls back to the single word; "balance" is OOV.
	ids = tok.Tokenize("bank balance")
	if len(ids) != 1 || tok.Store().Word(ids[0]) != "bank" {
		t.Fatalf("Tokenize(bank balance) = %v", ids)
	}
}

func TestTokenizeMultiplePhrases(t *testing.T) {
	tok := New(testStore())
	ids := tok.Tokenize("Luc Besson movie bank account")
	var words []string
	for _, id := range ids {
		words = append(words, tok.Store().Word(id))
	}
	want := []string{"luc_besson", "movie", "bank_account"}
	if !reflect.DeepEqual(words, want) {
		t.Fatalf("got %v want %v", words, want)
	}
}

func TestTokenizeAllOOV(t *testing.T) {
	tok := New(testStore())
	if ids := tok.Tokenize("xyzzy qwerty"); ids != nil {
		t.Fatalf("expected nil for all-OOV input, got %v", ids)
	}
}

func TestInitialVectorCentroid(t *testing.T) {
	tok := New(testStore())
	v := []float64{7, 7} // overwritten, not added to
	if !tok.InitialVector(v, "5th element") {
		t.Fatal("expected in-vocabulary")
	}
	// centroid of (0,-1) and (0,-3) = (0,-2)
	if v[0] != 0 || v[1] != -2 {
		t.Fatalf("InitialVector = %v", v)
	}
}

func TestInitialVectorNullForOOV(t *testing.T) {
	tok := New(testStore())
	v := []float64{7, 7}
	if tok.InitialVector(v, "zzzz") {
		t.Fatal("expected OOV")
	}
	if !vec.IsZero(v) {
		t.Fatalf("OOV vector must be null, got %v", v)
	}
}

func TestInitialVectorPhrasePreferred(t *testing.T) {
	tok := New(testStore())
	v := make([]float64, 2)
	tok.InitialVector(v, "bank account")
	if v[0] != 10 || v[1] != 10 {
		t.Fatalf("phrase vector not used: %v", v)
	}
	// The whitespace strawman averages the two word vectors instead.
	w, ok := tok.WhitespaceInitialVector("bank account")
	if !ok || math.Abs(w[0]-0.5) > 1e-12 || math.Abs(w[1]-0.5) > 1e-12 {
		t.Fatalf("whitespace strawman = %v", w)
	}
}

func TestWhitespaceInitialVectorOOV(t *testing.T) {
	tok := New(testStore())
	w, ok := tok.WhitespaceInitialVector("zzz qqq")
	if ok || !vec.IsZero(w) {
		t.Fatal("whitespace OOV should be null vector")
	}
}

func TestCoverage(t *testing.T) {
	tok := New(testStore())
	if c := tok.Coverage("bank account"); c != 1 {
		t.Fatalf("Coverage(full match) = %v", c)
	}
	if c := tok.Coverage("bank xyzzy"); c != 0.5 {
		t.Fatalf("Coverage(half) = %v", c)
	}
	if c := tok.Coverage(""); c != 0 {
		t.Fatalf("Coverage(empty) = %v", c)
	}
	if c := tok.Coverage("qq ww"); c != 0 {
		t.Fatalf("Coverage(OOV) = %v", c)
	}
}

func TestTokenizeCaseAndPunctuation(t *testing.T) {
	tok := New(testStore())
	a := tok.Tokenize("BANK-ACCOUNT")
	b := tok.Tokenize("bank account")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("case/punct variants disagree: %v vs %v", a, b)
	}
}

func TestSplitPhrase(t *testing.T) {
	if got := SplitPhrase("New_York_City"); !reflect.DeepEqual(got, []string{"new", "york", "city"}) {
		t.Fatalf("SplitPhrase = %v", got)
	}
}
