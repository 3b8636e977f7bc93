package lp

import "unsafe"

// This file sizes the warm kernels for callers that keep one alive and
// charge it to a memory budget (core's class records in the engine
// ledger). A size is the heap the kernel holds on its own: every backing
// array up to its capacity, including rows parked past len for reuse,
// but not the arena it is attached to, which is its owner's.

// sliceBytes is the size of s's backing array.
func sliceBytes[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

// rowsBytes is the size of a slice of owned rows: its headers and every
// distinct row backing array up to cap(s). Removing a row by shifting
// the tail down leaves the last row's header twice past len, so a
// backing array is counted once.
func rowsBytes[T any](s [][]T) int64 {
	n := sliceBytes(s)
	seen := make(map[*T]bool, cap(s))
	for _, r := range s[:cap(s)] {
		if p := unsafe.SliceData(r); p != nil && !seen[p] {
			seen[p] = true
			n += sliceBytes(r)
		}
	}
	return n
}

// Bytes is the dense solver's size: its row and column bookkeeping and
// its tableau. The ridx lists are views into nz.
func (s *Solver) Bytes() int64 {
	return int64(unsafe.Sizeof(*s)) +
		sliceBytes(s.rowOf) + sliceBytes(s.arenaIdx) + sliceBytes(s.rhs) + sliceBytes(s.sense) +
		sliceBytes(s.ridx) + sliceBytes(s.nz) +
		sliceBytes(s.lo) + sliceBytes(s.hi) + sliceBytes(s.atUpper) + sliceBytes(s.pos) + sliceBytes(s.slot) +
		rowsBytes(s.t) + sliceBytes(s.z) + sliceBytes(s.col) + sliceBytes(s.basis) + sliceBytes(s.xB) +
		sliceBytes(s.loB) + sliceBytes(s.hiB) + sliceBytes(s.nonbasic)
}

// Bytes is the sparse solver's size: its bookkeeping, its row and column
// caches, its LU factors and elimination state, its eta file and its
// scratch. The bcols entries are views into cols and units.
func (s *SparseSolver) Bytes() int64 {
	return int64(unsafe.Sizeof(*s)) +
		sliceBytes(s.rowOf) + sliceBytes(s.arenaIdx) + sliceBytes(s.rhs) + sliceBytes(s.sense) +
		rowsBytes(s.ridx) + rowsBytes(s.rval) + rowsBytes(s.cols) +
		sliceBytes(s.lo) + sliceBytes(s.hi) + sliceBytes(s.atUpper) + sliceBytes(s.z) + sliceBytes(s.pos) +
		sliceBytes(s.nonbasic) + sliceBytes(s.basis) + sliceBytes(s.xB) + sliceBytes(s.gamma) +
		s.lu.bytes() + s.etas.bytes() +
		sliceBytes(s.alpha) + sliceBytes(s.rowBuf) + sliceBytes(s.posBuf) + sliceBytes(s.posBuf2) +
		sliceBytes(s.bcols) + sliceBytes(s.units)
}

// bytes is the size of the factors' and the elimination state's arrays.
func (f *luFactor) bytes() int64 {
	return sliceBytes(f.prow) + sliceBytes(f.bpos) + sliceBytes(f.udiag) +
		sliceBytes(f.lbeg) + sliceBytes(f.ubeg) + sliceBytes(f.lidx) + sliceBytes(f.uidx) +
		sliceBytes(f.lval) + sliceBytes(f.uval) +
		rowsBytes(f.work) + rowsBytes(f.holders) + sliceBytes(f.live) + sliceBytes(f.marked) +
		sliceBytes(f.rowDone) + sliceBytes(f.colDone) + sliceBytes(f.scratch) + sliceBytes(f.inCol)
}

// bytes is the size of the eta file's arrays.
func (ef *etaFile) bytes() int64 {
	return sliceBytes(ef.r) + sliceBytes(ef.piv) + sliceBytes(ef.beg) + sliceBytes(ef.idx) + sliceBytes(ef.val)
}
