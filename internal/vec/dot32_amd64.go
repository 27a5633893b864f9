//go:build amd64

package vec

import "github.com/retrodb/retro/internal/cpu"

// The float32 dot kernel in dot32_amd64.s widens each 4-lane float32
// block with VCVTPS2PD in registers and fuses into float64 FMA
// accumulators: half the memory traffic of the float64 kernel, float64
// accumulation throughout. Only reachable when cpu.HasFMA().

//go:noescape
func dot32BlocksFMA(a, b *float32, blocks int) float64

func dot32(a, b []float32) float64 {
	if !cpu.HasFMA() {
		return dot32Generic(a, b)
	}
	n := len(a)
	var s float64
	if blocks := n / 8; blocks > 0 {
		s = dot32BlocksFMA(&a[0], &b[0], blocks)
	}
	for i := n &^ 7; i < n; i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}
