package embed

import (
	"slices"
	"testing"

	"github.com/retrodb/retro/internal/ann"
)

func TestParseQuantMode(t *testing.T) {
	for _, s := range []string{"", "off", "none"} {
		m, err := ParseQuantMode(s)
		if err != nil || m != QuantOff {
			t.Fatalf("ParseQuantMode(%q) = (%q, %v)", s, m, err)
		}
	}
	if m, err := ParseQuantMode("sq8"); err != nil || m != QuantSQ8 {
		t.Fatalf("ParseQuantMode(sq8) = (%q, %v)", m, err)
	}
	if _, err := ParseQuantMode("pq16"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestEnableQuantizationQuantizesBuiltIndex(t *testing.T) {
	s := randomStore(300, 16, 21)
	s.EnableANN(100, ann.Params{EfSearch: 300})
	s.WarmANN()
	if s.ANNIndex().Quantized() {
		t.Fatal("index quantized before EnableQuantization")
	}
	s.EnableQuantization(QuantSQ8, 6)
	if s.ANNIndex().Quantized() {
		t.Fatal("conversion should be lazy (no query yet)")
	}
	s.WarmANN() // reconcile
	idx := s.ANNIndex()
	if !idx.Quantized() || idx.Rerank() != 6 {
		t.Fatalf("after WarmANN: quantized=%v rerank=%d", idx.Quantized(), idx.Rerank())
	}
	mode, rerank := s.Quantization()
	if mode != QuantSQ8 || rerank != 6 {
		t.Fatalf("Quantization() = (%q, %d)", mode, rerank)
	}

	// Disable converts back on the next reconcile.
	s.EnableQuantization("off", 0)
	s.WarmANN()
	if s.ANNIndex().Quantized() {
		t.Fatal("index still quantized after disabling")
	}
}

// TestQuantizedTopKMatchesExactOnWideBeam mirrors the unquantized ANN
// routing test: with a beam covering the whole store the quantized path
// (re-ranked exactly) must reproduce TopKExact result-for-result,
// scores included.
func TestQuantizedTopKMatchesExactOnWideBeam(t *testing.T) {
	s := randomStore(300, 8, 22)
	s.EnableANN(100, ann.Params{EfSearch: 300})
	s.EnableQuantization(QuantSQ8, 30)
	q := s.Vector(42)
	got := s.TopK(q, 5, func(id int) bool { return id == 42 })
	if idx := s.ANNIndex(); idx == nil || !idx.Quantized() {
		t.Fatal("quantized index not built above threshold")
	}
	want := s.TopKExact(q, 5, func(id int) bool { return id == 42 })
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Word != want[i].Word {
			t.Fatalf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
		// Scores come from the float64 re-rank, so they agree with the
		// exact scan to rounding (the ANN path normalises query and vector
		// before the dot, the scan divides after it — last-ulp territory).
		if diff := got[i].Score - want[i].Score; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("rank %d: quantized score %v != exact %v (re-ranking must be exact)",
				i, got[i].Score, want[i].Score)
		}
	}
}

func TestQuantizedAddAfterBuildIsSearchable(t *testing.T) {
	s := randomStore(300, 8, 23)
	s.EnableANN(100, ann.Params{EfSearch: 300})
	s.EnableQuantization(QuantSQ8, 0)
	probe := s.Vector(99)
	s.TopK(probe, 3, nil) // build + quantize
	if !s.ANNIndex().Quantized() {
		t.Fatal("index not quantized")
	}
	v := make([]float64, 8)
	copy(v, probe)
	s.Add("fresh", v)
	found := false
	for _, m := range s.TopK(probe, 2, nil) {
		if m.Word == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatal("vector added after quantization not returned")
	}
}

// TestFreezeSharesQuantizedIndexCOW: a frozen snapshot keeps serving the
// quantized graph it was frozen with while the live store mutates, and a
// quantization-mode change after the freeze converts a clone, never the
// shared index.
func TestFreezeSharesQuantizedIndexCOW(t *testing.T) {
	s := randomStore(400, 8, 24)
	s.EnableANN(100, ann.Params{EfSearch: 400})
	s.EnableQuantization(QuantSQ8, 4)
	s.WarmANN()
	f := s.Freeze()
	frozenIdx := f.ANNIndex()
	if frozenIdx == nil || !frozenIdx.Quantized() {
		t.Fatal("freeze did not materialise the quantized index")
	}
	if mode, _ := f.Quantization(); mode != QuantSQ8 {
		t.Fatalf("frozen Quantization() mode = %q", mode)
	}
	q := f.Vector(7)
	before := f.TopK(q, 5, nil)

	// Live store: disable quantization and mutate. The frozen view must
	// keep its quantized graph and its answers.
	s.EnableQuantization("off", 0)
	s.WarmANN()
	if s.ANNIndex() == frozenIdx {
		t.Fatal("reconcile mutated the index shared with the frozen view")
	}
	if !frozenIdx.Quantized() {
		t.Fatal("frozen view's index was de-quantized in place")
	}
	v := make([]float64, 8)
	v[0] = 1
	s.Add("newcomer", v)
	after := f.TopK(q, 5, nil)
	if len(before) != len(after) {
		t.Fatalf("frozen view changed: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("frozen view rank %d changed: %+v vs %+v", i, before[i], after[i])
		}
	}
}

func TestTuneRerank(t *testing.T) {
	s := randomStore(300, 8, 25)
	s.EnableANN(100, ann.Params{})
	s.EnableQuantization(QuantSQ8, 4)
	s.WarmANN()
	f := s.Freeze()
	s.TuneRerank(9)
	if got := s.ANNIndex().Rerank(); got != 9 {
		t.Fatalf("live rerank = %d, want 9", got)
	}
	if got := f.ANNIndex().Rerank(); got != 4 {
		t.Fatalf("frozen snapshot rerank changed to %d", got)
	}
	if _, r := s.Quantization(); r != 9 {
		t.Fatalf("Quantization() rerank = %d, want 9", r)
	}
}

func TestCloneCarriesQuantConfig(t *testing.T) {
	s := randomStore(300, 8, 26)
	s.EnableANN(100, ann.Params{})
	s.EnableQuantization(QuantSQ8, 5)
	c := s.Clone()
	c.WarmANN()
	idx := c.ANNIndex()
	if idx == nil || !idx.Quantized() || idx.Rerank() != 5 {
		t.Fatal("clone did not inherit quantization config")
	}
}

func TestAdoptANNSyncsQuantState(t *testing.T) {
	s := randomStore(300, 8, 27)
	s.EnableANN(100, ann.Params{})
	s.WarmANN()
	donor := s.ANNIndex().Clone()
	donor.QuantizeSQ8(7)

	fresh := randomStore(300, 8, 27)
	fresh.EnableANN(100, ann.Params{})
	if err := fresh.AdoptANN(donor); err != nil {
		t.Fatal(err)
	}
	mode, rerank := fresh.Quantization()
	if mode != QuantSQ8 || rerank != 7 {
		t.Fatalf("adopted quant state = (%q, %d), want (sq8, 7)", mode, rerank)
	}
	// The next reconcile must keep the adopted quantization, not strip it.
	fresh.WarmANN()
	if !fresh.ANNIndex().Quantized() {
		t.Fatal("reconcile stripped the adopted index's quantization")
	}
}

// TestQuantizeFirstBuildTrainsSameCodebook: with SQ8 configured before the
// index exists, ensureANN quantizes first and builds on the codes. The
// codebook it trains from the store's rows must be the one a
// build-then-quantize trains from the finished graph's nodes — zero rows,
// which are never indexed, included — on both precisions.
func TestQuantizeFirstBuildTrainsSameCodebook(t *testing.T) {
	for _, p := range []Precision{F64, F32} {
		first := NewStoreWithPrecision(16, p)
		after := NewStoreWithPrecision(16, p)
		src := randomStore(300, 16, 41)
		src.Add("zero", make([]float64, 16)) // never indexed, must not disturb training
		for id, w := range src.Words() {
			first.Add(w, src.Vector(id))
			after.Add(w, src.Vector(id))
		}
		first.EnableANN(100, ann.Params{})
		first.EnableQuantization(QuantSQ8, 5)
		first.WarmANN()

		after.EnableANN(100, ann.Params{})
		after.WarmANN()
		after.EnableQuantization(QuantSQ8, 5)
		after.WarmANN()

		a, b := first.ANNIndex(), after.ANNIndex()
		if !a.Quantized() || a.Rerank() != 5 || a.Len() != 300 {
			t.Fatalf("%v: quantize-first build: quantized=%v rerank=%d len=%d", p, a.Quantized(), a.Rerank(), a.Len())
		}
		if !slices.Equal(a.Codebook().Scales(), b.Codebook().Scales()) {
			t.Fatalf("%v: training before the build and after it produced different codebooks", p)
		}
		q := src.Vector(17)
		if got, want := first.TopK(q, 5, nil), first.TopKExact(q, 5, nil); got[0].ID != want[0].ID {
			t.Fatalf("%v: quantize-first index misses the top hit: %+v vs %+v", p, got[0], want[0])
		}
	}
}
