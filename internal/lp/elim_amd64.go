package lp

// elimRows runs elimRowsGo's loop in one SSE2 call per pivot
// (elim_amd64.s). Each cell is computed as y − round(f·x), with MULPD
// then SUBPD and the operands in the order Go's compiled loop uses, so
// the result is bit-identical to elimRowsGo, NaN payloads included.
//
//go:noescape
func elimRows(t [][]float64, xB []float64, r, k int, dv float64)
