// Package cpu centralises runtime CPU-feature detection for the SIMD
// kernels in internal/vec and internal/quant. Dispatch is decided once,
// at process start (or explicitly via SetLevel in tests), and the hot
// kernels read a plain package variable — no atomic, no indirection —
// so the per-call dispatch cost is one predictable branch.
//
// The detected level can be capped with the RETRO_SIMD environment
// variable, which is how CI proves every dispatch branch on one
// machine:
//
//	RETRO_SIMD=auto    use the best level the hardware supports (default)
//	RETRO_SIMD=avx2    require AVX2 (fails closed to the detected level)
//	RETRO_SIMD=sse2    force the amd64 baseline kernels
//	RETRO_SIMD=scalar  force the portable Go kernels everywhere
//
// Run capped tests with go test -count=1: the variable is read in init,
// before the testing package starts logging environment reads, so the
// test result cache does not key on it and a second cap would otherwise
// be answered "(cached)" from the first.
//
// Levels are strictly ordered: a kernel compiled for a level is only
// selected when the hardware (and the OS's saved-register state, for
// AVX) supports it, so a misdetected machine degrades to a slower
// correct kernel, never to an illegal instruction.
package cpu

import (
	"os"
	"strings"
)

// Level identifies one dispatch tier of the SIMD kernels.
type Level int32

const (
	// Scalar is the portable Go kernel tier; always available.
	Scalar Level = iota
	// SSE2 is the amd64 baseline tier (guaranteed by the architecture,
	// so it needs no runtime probe beyond being on amd64).
	SSE2
	// AVX2 is the 256-bit integer/float tier; requires the AVX2 CPUID
	// bit plus OS support for saving the YMM state. The float64 kernels
	// additionally use FMA only when the FMA bit is present (see HasFMA).
	AVX2
)

// String names the level as the RETRO_SIMD values spell it.
func (l Level) String() string {
	switch l {
	case AVX2:
		return "avx2"
	case SSE2:
		return "sse2"
	default:
		return "scalar"
	}
}

var (
	// detected is the best level the hardware supports, probed once at
	// init and never changed.
	detected Level
	// hasFMA records the FMA3 CPUID bit (probed with AVX2; the float64
	// dot kernel uses fused multiply-add only when both are present).
	hasFMA bool
	// active is the level kernels dispatch on: detected, capped by
	// RETRO_SIMD, overridable by SetLevel for tests.
	active Level
)

func init() {
	detected, hasFMA = probe()
	active = capLevel(detected, os.Getenv("RETRO_SIMD"))
}

// capLevel applies a RETRO_SIMD-style cap to a detected level. Unknown
// values (and "auto"/"") leave the detected level in place; a cap above
// the detected level cannot raise it.
func capLevel(det Level, env string) Level {
	switch strings.ToLower(strings.TrimSpace(env)) {
	case "scalar":
		return Scalar
	case "sse2":
		return min(det, SSE2)
	case "avx2":
		return min(det, AVX2)
	default:
		return det
	}
}

// Active returns the level the kernels currently dispatch on.
func Active() Level { return active }

// Detected returns the best level the hardware supports, ignoring any
// RETRO_SIMD cap or SetLevel override.
func Detected() Level { return detected }

// HasFMA reports whether fused multiply-add is available (and the
// active level admits vector kernels at all). The float64 kernels pick
// the FMA body only when this holds.
func HasFMA() bool { return hasFMA && active >= AVX2 }

// SetLevel overrides the active dispatch level, for tests that prove
// kernel parity on every branch. Levels above Detected() are clamped —
// the override can never select an illegal instruction. It returns the
// level actually installed. Not safe to call concurrently with running
// kernels; tests switch levels between runs, not during them.
func SetLevel(l Level) Level {
	if l > detected {
		l = detected
	}
	if l < Scalar {
		l = Scalar
	}
	active = l
	return active
}

// Features describes the detected hardware and the active dispatch
// level for telemetry and perf reports, e.g. "avx2+fma (active: sse2)".
func Features() string {
	var b strings.Builder
	b.WriteString(detected.String())
	if hasFMA {
		b.WriteString("+fma")
	}
	if active != detected {
		b.WriteString(" (active: ")
		b.WriteString(active.String())
		b.WriteString(")")
	}
	return b.String()
}
