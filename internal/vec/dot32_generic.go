//go:build !amd64

package vec

func dot32(a, b []float32) float64 { return dot32Generic(a, b) }
