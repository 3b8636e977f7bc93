// Sparse LU machinery behind the revised-simplex SparseSolver: a
// Markowitz-ordered LU factorization of the basis matrix, forward/backward
// transformations (FTRAN/BTRAN) through it, and a product-form eta file
// for the pivots performed since the last refactorization — the
// Bartels–Golub lineage of basis maintenance, sized for the mostly-slack,
// 2–5-nonzeros-per-column bases Algorithm 1's MILP relaxations produce.
//
// The factorization records the Gaussian elimination of B column by
// column: pivots are chosen singleton-first (a row that appears in one
// remaining column, or a column with one remaining row, eliminates with
// zero fill), falling back to a Markowitz (r−1)(c−1) score with a
// relative stability threshold for the tiny dense bump that remains. The
// result is kept in row space throughout:
//
//	B = P · L · U        (P the pivot-order permutation)
//
// with L unit-lower as per-step multiplier columns and U as per-step
// sparse columns plus a diagonal. Simplex pivots append eta vectors on
// top (B_k = B_{k−1} · F_k with F_k an elementary column matrix), so
//
//	FTRAN:  B⁻¹b = F_K⁻¹ ··· F_1⁻¹ · (LU-solve of b)
//	BTRAN:  B⁻ᵀc = LU-transpose-solve of (F_1⁻ᵀ ··· F_K⁻ᵀ c)
//
// and a refactorization simply drops the eta file and re-runs the
// elimination on the current basis columns. The factors, the eta file
// and the elimination's working state live in flat arrays that every
// factorization reuses.
package lp

import (
	"errors"
	"math/bits"
	"slices"
)

// errSingularBasis reports a basis the elimination could not complete
// within the stability threshold; callers recover with a cold all-slack
// rebuild.
var errSingularBasis = errors.New("lp: singular basis factorization")

// colEntry is one nonzero of a sparse column in row space.
type colEntry struct {
	row int32
	val float64
}

// luFactor is the LU factorization of an m×m basis in row space.
type luFactor struct {
	m     int
	prow  []int32 // pivot row of elimination step t
	bpos  []int32 // basis position pivoted at step t
	udiag []float64
	// Step t's unit-lower multipliers over not-yet-pivoted rows are
	// lidx/lval[lbeg[t]:lbeg[t+1]]; its upper entries over
	// already-pivoted rows are uidx/uval[ubeg[t]:ubeg[t+1]].
	lbeg, ubeg []int32
	lidx, uidx []int32
	lval, uval []float64

	// Elimination state, reused across factorizations. work[k] is basis
	// column k as eliminated so far; holders[i] lists the live columns
	// with an entry in live row i, live[k] counts column k's entries in
	// live rows, and marked has bit k set for every live column that may
	// hold a singleton pivot (see factorize).
	work    [][]colEntry
	holders [][]int32
	live    []int32
	marked  []uint64
	rowDone []bool
	colDone []bool
	scratch []float64
	inCol   []bool
}

// Pivot thresholds of the elimination.
const (
	stabRel = 0.01 // Markowitz stability: |pivot| >= stabRel * max|col|
	tiny    = 1e-11
)

// factorize eliminates the basis given as sparse columns (cols[k] is the
// column of basis position k, in row space, with distinct rows) into f,
// reusing its storage. It returns errSingularBasis when no numerically
// acceptable pivot remains.
//
// Each step takes the lowest column holding a singleton: a live entry of
// magnitude at least tiny whose row has no other live holder, or which
// is its column's only live entry (the first such entry of the column).
// A live column with no live entry left ends the factorization as
// singular when no lower column holds a singleton. A column can only
// start to qualify when its live count drops to one or less, when a row
// it holds drops to one holder, or when elimination rewrites it, so only
// the columns marked by one of those events since they were last checked
// are searched; the answer is that of a scan over every column in
// ascending order. Without a singleton the best Markowitz score wins
// (markowitz).
func (f *luFactor) factorize(m int, cols [][]colEntry) error {
	f.m = m
	f.prow = f.prow[:0]
	f.bpos = f.bpos[:0]
	f.udiag = f.udiag[:0]
	f.lbeg = append(f.lbeg[:0], 0)
	f.ubeg = append(f.ubeg[:0], 0)
	f.lidx, f.lval = f.lidx[:0], f.lval[:0]
	f.uidx, f.uval = f.uidx[:0], f.uval[:0]
	if m == 0 {
		return nil
	}
	f.reset(m, cols)
	work, rowDone := f.work, f.rowDone

	for step := 0; step < m; step++ {
		pr, pc, pv, err := f.singleton()
		if err != nil {
			return err
		}
		if pc < 0 {
			pr, pc, pv = f.markowitz()
		}
		if pr < 0 {
			return errSingularBasis
		}

		// Record the pivot column split into L (rows below in elimination
		// order) and U (rows already pivoted).
		inv := 1 / pv
		for _, e := range work[pc] {
			if int(e.row) == pr {
				continue
			}
			if rowDone[e.row] {
				f.uidx = append(f.uidx, e.row)
				f.uval = append(f.uval, e.val)
			} else if abs64(e.val) > 0 {
				f.lidx = append(f.lidx, e.row)
				f.lval = append(f.lval, e.val*inv)
			}
		}
		noL := len(f.lidx) == int(f.lbeg[step])
		f.prow = append(f.prow, int32(pr))
		f.bpos = append(f.bpos, int32(pc))
		f.udiag = append(f.udiag, pv)
		f.lbeg = append(f.lbeg, int32(len(f.lidx)))
		f.ubeg = append(f.ubeg, int32(len(f.uidx)))

		// Retire the pivot column from its live rows and the pivot row
		// from the columns holding it.
		for _, e := range work[pc] {
			if !rowDone[e.row] {
				f.unhold(int(e.row), pc)
			}
		}
		rowDone[pr] = true
		f.colDone[pc] = true
		f.marked[pc>>6] &^= 1 << (pc & 63)
		others := f.holders[pr]
		for _, j := range others {
			if f.live[j]--; f.live[j] <= 1 {
				f.mark(int(j))
			}
		}
		if noL || len(others) == 0 {
			// Column singleton (no multipliers) or row singleton (no other
			// column references the pivot row): the update is vacuous.
			continue
		}
		// Eliminate the pivot row from every other live column that
		// references it. Each column's update reads only itself and the
		// pivot column, so the order of the columns does not matter.
		for _, j := range others {
			f.eliminate(int(j), pr, pc, inv)
		}
	}
	return nil
}

// reset loads the basis columns into the elimination state with every
// column marked.
func (f *luFactor) reset(m int, cols [][]colEntry) {
	f.work = slices.Grow(f.work[:0], m)[:m]
	f.holders = slices.Grow(f.holders[:0], m)[:m]
	f.live = slices.Grow(f.live[:0], m)[:m]
	f.rowDone = slices.Grow(f.rowDone[:0], m)[:m]
	f.colDone = slices.Grow(f.colDone[:0], m)[:m]
	f.scratch = slices.Grow(f.scratch[:0], m)[:m]
	f.inCol = slices.Grow(f.inCol[:0], m)[:m]
	clear(f.rowDone)
	clear(f.colDone)
	clear(f.scratch)
	clear(f.inCol)
	for i := range f.holders {
		f.holders[i] = f.holders[i][:0]
	}
	for k := 0; k < m; k++ {
		f.work[k] = append(f.work[k][:0], cols[k]...)
		f.live[k] = int32(len(cols[k]))
		for _, e := range cols[k] {
			f.holders[e.row] = append(f.holders[e.row], int32(k))
		}
	}
	words := (m + 63) >> 6
	f.marked = f.marked[:0]
	for w := 0; w < words; w++ {
		f.marked = append(f.marked, ^uint64(0))
	}
	if r := m & 63; r != 0 {
		f.marked[words-1] = 1<<r - 1
	}
}

func (f *luFactor) mark(k int) { f.marked[k>>6] |= 1 << (k & 63) }

// unhold removes column k from the holders of live row i; a row left
// with one holder marks that column.
func (f *luFactor) unhold(i, k int) {
	h := f.holders[i]
	for x, j := range h {
		if int(j) == k {
			h[x] = h[len(h)-1]
			h = h[:len(h)-1]
			break
		}
	}
	f.holders[i] = h
	if len(h) == 1 {
		f.mark(int(h[0]))
	}
}

// singleton returns the lowest marked column's singleton pivot, clearing
// the mark of every lower column found to hold none; pc < 0 when no
// marked column holds one. A marked column with no live entry left is
// errSingularBasis.
func (f *luFactor) singleton() (pr, pc int, pv float64, err error) {
	for w, word := range f.marked {
		for ; word != 0; word &= word - 1 {
			k := w<<6 + bits.TrailingZeros64(word)
			live := f.live[k]
			if live == 0 {
				return -1, -1, 0, errSingularBasis
			}
			for _, e := range f.work[k] {
				if f.rowDone[e.row] || abs64(e.val) < tiny {
					continue
				}
				if live == 1 || len(f.holders[e.row]) == 1 {
					return int(e.row), k, e.val, nil
				}
			}
			f.marked[w] &^= 1 << (k & 63)
		}
	}
	return -1, -1, 0, nil
}

// markowitz scans every live column in ascending order for the entry of
// best Markowitz score (r−1)(c−1) among those clearing the relative
// stability threshold; pr < 0 when no entry qualifies. It runs only
// after singleton found no singleton and no empty live column.
func (f *luFactor) markowitz() (pr, pc int, pv float64) {
	pr, pc = -1, -1
	bestScore := int64(1) << 62
	for k := 0; k < f.m; k++ {
		if f.colDone[k] {
			continue
		}
		live := 0
		var maxAbs float64
		for _, e := range f.work[k] {
			if f.rowDone[e.row] {
				continue
			}
			live++
			if a := abs64(e.val); a > maxAbs {
				maxAbs = a
			}
		}
		for _, e := range f.work[k] {
			if f.rowDone[e.row] {
				continue
			}
			a := abs64(e.val)
			if a < tiny {
				continue
			}
			if a < stabRel*maxAbs {
				continue
			}
			if score := int64(len(f.holders[e.row])-1) * int64(live-1); score < bestScore {
				bestScore = score
				pr, pc, pv = int(e.row), k, e.val
			}
		}
	}
	return pr, pc, pv
}

// eliminate subtracts (a_prj / pv) · col_pc from live column j over the
// not-yet-pivoted rows (already-pivoted rows belong to U and are never
// touched again), where inv = 1/pv, and marks j. A column whose entry in
// row pr is below tiny is left alone.
func (f *luFactor) eliminate(j, pr, pc int, inv float64) {
	work, rowDone, scratch, inCol := f.work, f.rowDone, f.scratch, f.inCol
	var apr float64
	found := false
	for _, e := range work[j] {
		if int(e.row) == pr {
			apr, found = e.val, true
			break
		}
	}
	if !found || abs64(apr) < tiny {
		return
	}
	mult := apr * inv
	// Scatter col_j into scratch, subtract mult*col_pc over live rows,
	// gather back.
	for _, e := range work[j] {
		scratch[e.row] = e.val
		inCol[e.row] = true
	}
	for _, e := range work[pc] {
		if int(e.row) == pr || rowDone[e.row] {
			continue
		}
		if !inCol[e.row] {
			inCol[e.row] = true
			f.holders[e.row] = append(f.holders[e.row], int32(j))
			f.live[j]++
		}
		scratch[e.row] -= float64(mult * e.val)
	}
	nj := work[j][:0]
	for _, e := range work[j] {
		if inCol[e.row] {
			if int(e.row) == pr {
				// Pivot-row entry moves into U territory for later
				// steps; keep it (rowDone guards reuse) so U columns
				// of later pivots see it.
				nj = append(nj, colEntry{e.row, scratch[e.row]})
			} else if v := scratch[e.row]; v != 0 || rowDone[e.row] {
				nj = append(nj, colEntry{e.row, v})
			} else {
				f.unhold(int(e.row), j)
				f.live[j]--
			}
			inCol[e.row] = false
			scratch[e.row] = 0
		}
	}
	// Fill-in: rows of col_pc not previously in col_j.
	for _, e := range work[pc] {
		if inCol[e.row] {
			nj = append(nj, colEntry{e.row, scratch[e.row]})
			inCol[e.row] = false
			scratch[e.row] = 0
		}
	}
	work[j] = nj
	f.mark(j)
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// lusolve solves B·x = b in place: a enters indexed by physical row and
// leaves holding the solution indexed so that the component of basis
// position bpos[t] sits at row prow[t].
func (f *luFactor) lusolve(a []float64) {
	// L-pass in elimination order.
	for t := 0; t < len(f.prow); t++ {
		v := a[f.prow[t]]
		if v == 0 {
			continue
		}
		b, e := f.lbeg[t], f.lbeg[t+1]
		lv := f.lval[b:e]
		for k, i := range f.lidx[b:e] {
			a[i] -= float64(lv[k] * v)
		}
	}
	// U-pass in reverse order.
	for t := len(f.prow) - 1; t >= 0; t-- {
		r := f.prow[t]
		v := a[r] / f.udiag[t]
		a[r] = v
		if v == 0 {
			continue
		}
		b, e := f.ubeg[t], f.ubeg[t+1]
		uv := f.uval[b:e]
		for k, i := range f.uidx[b:e] {
			a[i] -= float64(uv[k] * v)
		}
	}
}

// lusolveT solves Bᵀ·y = c in place: a enters with the component for
// basis position bpos[t] at row prow[t] and leaves holding y indexed by
// physical row.
func (f *luFactor) lusolveT(a []float64) {
	// Uᵀ-pass in elimination order (gather form).
	for t := 0; t < len(f.prow); t++ {
		r := f.prow[t]
		v := a[r]
		b, e := f.ubeg[t], f.ubeg[t+1]
		uv := f.uval[b:e]
		for k, i := range f.uidx[b:e] {
			v -= float64(uv[k] * a[i])
		}
		a[r] = v / f.udiag[t]
	}
	// Lᵀ-pass in reverse order (gather form).
	for t := len(f.prow) - 1; t >= 0; t-- {
		r := f.prow[t]
		v := a[r]
		b, e := f.lbeg[t], f.lbeg[t+1]
		lv := f.lval[b:e]
		for k, i := range f.lidx[b:e] {
			v -= float64(lv[k] * a[i])
		}
		a[r] = v
	}
}

// etaFile is the product-form update file: eta t says basis position
// r[t] took on a column w with w[r[t]] = piv[t] and its other nonzeros
// over basis positions at idx/val[beg[t]:beg[t+1]].
type etaFile struct {
	r   []int32
	piv []float64
	beg []int32
	idx []int32
	val []float64
}

func (ef *etaFile) len() int { return len(ef.r) }

// reset empties the file, keeping its storage.
func (ef *etaFile) reset() {
	ef.r, ef.piv = ef.r[:0], ef.piv[:0]
	ef.beg = append(ef.beg[:0], 0)
	ef.idx, ef.val = ef.idx[:0], ef.val[:0]
}

// push appends the eta of position r taking on column w.
func (ef *etaFile) push(r int, w []float64) {
	for k, v := range w {
		if k != r && v != 0 {
			ef.idx = append(ef.idx, int32(k))
			ef.val = append(ef.val, v)
		}
	}
	ef.r = append(ef.r, int32(r))
	ef.piv = append(ef.piv, w[r])
	ef.beg = append(ef.beg, int32(len(ef.idx)))
}

// ftran applies F_K⁻¹ ··· F_1⁻¹ to out, indexed by basis position.
func (ef *etaFile) ftran(out []float64) {
	for t, r := range ef.r {
		f := out[r] / ef.piv[t]
		if f != 0 {
			b, e := ef.beg[t], ef.beg[t+1]
			val := ef.val[b:e]
			for k, i := range ef.idx[b:e] {
				out[i] -= float64(val[k] * f)
			}
		}
		out[r] = f
	}
}

// btran applies F_1⁻ᵀ ··· F_K⁻ᵀ to c, indexed by basis position.
func (ef *etaFile) btran(c []float64) {
	for t := len(ef.r) - 1; t >= 0; t-- {
		r := ef.r[t]
		v := c[r]
		b, e := ef.beg[t], ef.beg[t+1]
		val := ef.val[b:e]
		for k, i := range ef.idx[b:e] {
			v -= float64(val[k] * c[i])
		}
		c[r] = v / ef.piv[t]
	}
}
