//go:build !amd64

package lp

// elimRows is elimRowsGo off amd64.
func elimRows(t [][]float64, xB []float64, r, k int, dv float64) {
	elimRowsGo(t, xB, r, k, dv)
}
