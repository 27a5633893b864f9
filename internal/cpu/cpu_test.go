package cpu

import (
	"runtime"
	"testing"
	"unsafe"
)

func TestDetectedLevelSane(t *testing.T) {
	det := Detected()
	if runtime.GOARCH == "amd64" && det < SSE2 {
		t.Fatalf("amd64 must detect at least SSE2, got %v", det)
	}
	if runtime.GOARCH != "amd64" && det != Scalar {
		t.Fatalf("non-amd64 must detect Scalar, got %v", det)
	}
}

func TestSetLevelClampsToDetected(t *testing.T) {
	orig := Active()
	defer SetLevel(orig)
	if got := SetLevel(AVX2); got > Detected() {
		t.Fatalf("SetLevel(AVX2) installed %v above detected %v", got, Detected())
	}
	if got := SetLevel(Scalar); got != Scalar {
		t.Fatalf("SetLevel(Scalar) = %v", got)
	}
	if got := SetLevel(-1); got != Scalar {
		t.Fatalf("SetLevel(-1) = %v, want clamp to Scalar", got)
	}
}

func TestCapLevel(t *testing.T) {
	cases := []struct {
		det  Level
		env  string
		want Level
	}{
		{AVX2, "", AVX2},
		{AVX2, "auto", AVX2},
		{AVX2, "AVX2", AVX2},
		{AVX2, "sse2", SSE2},
		{AVX2, "scalar", Scalar},
		{SSE2, "avx2", SSE2}, // a cap can never raise the level
		{Scalar, "sse2", Scalar},
		{AVX2, "bogus", AVX2}, // unknown values fall back to detected
	}
	for _, c := range cases {
		if got := capLevel(c.det, c.env); got != c.want {
			t.Errorf("capLevel(%v, %q) = %v, want %v", c.det, c.env, got, c.want)
		}
	}
}

func TestLevelString(t *testing.T) {
	if Scalar.String() != "scalar" || SSE2.String() != "sse2" || AVX2.String() != "avx2" {
		t.Fatal("Level.String mismatch")
	}
}

// TestPrefetchDoesNotCrash exercises the hint helpers over real and
// edge-case spans; prefetch must be side-effect free.
func TestPrefetchDoesNotCrash(t *testing.T) {
	buf := make([]byte, 4096)
	PrefetchT0(unsafe.Pointer(&buf[0]))
	PrefetchRange(unsafe.Pointer(&buf[0]), len(buf))
	PrefetchRange(unsafe.Pointer(&buf[0]), 0)
	PrefetchRange(unsafe.Pointer(&buf[0]), -1)
	PrefetchRange(unsafe.Pointer(&buf[0]), 1) // partial line
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("prefetch mutated buf[%d]", i)
		}
	}
}
