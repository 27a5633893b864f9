//go:build !amd64

package vec

func axpy(dst []float64, alpha float64, x []float64) { axpyGeneric(dst, alpha, x) }

func axpyAcc(dst []float64, alpha float64, x, acc []float64) {
	axpyAccGeneric(dst, alpha, x, acc)
}

func scale(a []float64, alpha float64) { scaleGeneric(a, alpha) }

func add(dst, a, b []float64) { addGeneric(dst, a, b) }
