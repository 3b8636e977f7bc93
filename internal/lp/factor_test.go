package lp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refLU is the factorization factorizeRef produces, one slice per
// elimination step.
type refLU struct {
	prow, bpos []int32
	udiag      []float64
	lidx, uidx [][]int32
	lval, uval [][]float64
}

// factorizeRef is the elimination luFactor.factorize replaced: every
// step rescans every live column in ascending order for its pivot and
// searches every live column for the pivot row. It is the oracle the
// marked-column search is tested against bit for bit.
func factorizeRef(f *refLU, m int, cols [][]colEntry) error {
	*f = refLU{}
	if m == 0 {
		return nil
	}
	work := make([][]colEntry, m)
	for k := 0; k < m; k++ {
		work[k] = append([]colEntry(nil), cols[k]...)
	}
	rowDone := make([]bool, m)
	colDone := make([]bool, m)
	rowCount := make([]int, m) // live nonzeros per row over live columns
	for k := 0; k < m; k++ {
		for _, e := range work[k] {
			rowCount[e.row]++
		}
	}
	scratch := make([]float64, m)
	inCol := make([]bool, m)

	for step := 0; step < m; step++ {
		pr, pc := -1, -1
		var pv float64
		bestScore := int64(1) << 62
		singleton := false
		for k := 0; k < m && !singleton; k++ {
			if colDone[k] {
				continue
			}
			live := 0
			var maxAbs float64
			for _, e := range work[k] {
				if rowDone[e.row] {
					continue
				}
				live++
				if a := abs64(e.val); a > maxAbs {
					maxAbs = a
				}
			}
			if live == 0 {
				return errSingularBasis
			}
			for _, e := range work[k] {
				if rowDone[e.row] {
					continue
				}
				a := abs64(e.val)
				if a < tiny {
					continue
				}
				if rowCount[e.row] == 1 || live == 1 {
					pr, pc, pv = int(e.row), k, e.val
					singleton = true
					break
				}
				if a < stabRel*maxAbs {
					continue
				}
				if score := int64(rowCount[e.row]-1) * int64(live-1); score < bestScore {
					bestScore = score
					pr, pc, pv = int(e.row), k, e.val
				}
			}
		}
		if pr < 0 {
			return errSingularBasis
		}

		var li []int32
		var lv []float64
		var ui []int32
		var uv []float64
		inv := 1 / pv
		for _, e := range work[pc] {
			if int(e.row) == pr {
				continue
			}
			if rowDone[e.row] {
				ui = append(ui, e.row)
				uv = append(uv, e.val)
			} else if abs64(e.val) > 0 {
				li = append(li, e.row)
				lv = append(lv, e.val*inv)
			}
		}
		f.prow = append(f.prow, int32(pr))
		f.bpos = append(f.bpos, int32(pc))
		f.udiag = append(f.udiag, pv)
		f.lidx = append(f.lidx, li)
		f.lval = append(f.lval, lv)
		f.uidx = append(f.uidx, ui)
		f.uval = append(f.uval, uv)

		for _, e := range work[pc] {
			if !rowDone[e.row] {
				rowCount[e.row]--
			}
		}
		rowDone[pr] = true
		colDone[pc] = true
		if len(li) == 0 || rowCount[pr] == 0 {
			continue
		}
		for j := 0; j < m; j++ {
			if colDone[j] {
				continue
			}
			var apr float64
			found := false
			for _, e := range work[j] {
				if int(e.row) == pr && !found {
					apr, found = e.val, true
					break
				}
			}
			if !found || abs64(apr) < tiny {
				continue
			}
			mult := apr * inv
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
					rowCount[e.row]++
				}
				scratch[e.row] -= float64(mult * e.val)
			}
			nj := work[j][:0]
			for _, e := range work[j] {
				if inCol[e.row] {
					if int(e.row) == pr {
						nj = append(nj, colEntry{e.row, scratch[e.row]})
					} else if v := scratch[e.row]; v != 0 || rowDone[e.row] {
						nj = append(nj, colEntry{e.row, v})
					} else {
						rowCount[e.row]--
					}
					inCol[e.row] = false
					scratch[e.row] = 0
				}
			}
			for _, e := range work[pc] {
				if inCol[e.row] {
					nj = append(nj, colEntry{e.row, scratch[e.row]})
					inCol[e.row] = false
					scratch[e.row] = 0
				}
			}
			work[j] = nj
		}
	}
	return nil
}

// sameFactor compares a factorization with the reference's, float bits
// included.
func sameFactor(got *luFactor, want *refLU) error {
	steps := len(want.prow)
	if len(got.prow) != steps || len(got.bpos) != steps || len(got.udiag) != steps {
		return fmt.Errorf("%d steps, reference %d", len(got.prow), steps)
	}
	for t := 0; t < steps; t++ {
		if got.prow[t] != want.prow[t] || got.bpos[t] != want.bpos[t] {
			return fmt.Errorf("step %d pivots (%d, %d), reference (%d, %d)", t, got.prow[t], got.bpos[t], want.prow[t], want.bpos[t])
		}
		if math.Float64bits(got.udiag[t]) != math.Float64bits(want.udiag[t]) {
			return fmt.Errorf("step %d diagonal %v, reference %v", t, got.udiag[t], want.udiag[t])
		}
		if err := sameSparse(got.lidx[got.lbeg[t]:got.lbeg[t+1]], got.lval[got.lbeg[t]:got.lbeg[t+1]], want.lidx[t], want.lval[t]); err != nil {
			return fmt.Errorf("step %d L: %v", t, err)
		}
		if err := sameSparse(got.uidx[got.ubeg[t]:got.ubeg[t+1]], got.uval[got.ubeg[t]:got.ubeg[t+1]], want.uidx[t], want.uval[t]); err != nil {
			return fmt.Errorf("step %d U: %v", t, err)
		}
	}
	return nil
}

func sameSparse(idx []int32, val []float64, widx []int32, wval []float64) error {
	if len(idx) != len(widx) || len(val) != len(wval) {
		return fmt.Errorf("%d entries, reference %d", len(idx), len(widx))
	}
	for k := range idx {
		if idx[k] != widx[k] || math.Float64bits(val[k]) != math.Float64bits(wval[k]) {
			return fmt.Errorf("entry %d (%d, %v), reference (%d, %v)", k, idx[k], val[k], widx[k], wval[k])
		}
	}
	return nil
}

// randomBasis draws an m×m basis in the shape the sparse kernel
// factorizes: unit slack columns on distinct rows and structural columns
// with a few nonzeros, or dense ones when dense is set. Entries are
// occasionally exactly zero or below the pivot threshold, and singular
// mixes duplicated and empty columns in.
func randomBasis(g *rand.Rand, m int, dense, singular bool) [][]colEntry {
	cols := make([][]colEntry, m)
	slackRows := g.Perm(m)
	for k := range cols {
		if g.IntN(3) == 0 {
			cols[k] = []colEntry{{int32(slackRows[k]), 1}}
			continue
		}
		// A structural column holds its slack row's entry too, so the
		// basis is structurally nonsingular unless singular is set.
		nnz := 1 + g.IntN(min(m, 5))
		if dense {
			nnz = max(1, m-g.IntN(m/2+1))
		}
		cols[k] = append(cols[k], colEntry{int32(slackRows[k]), 1 + math.Abs(g.NormFloat64())})
		for _, i := range g.Perm(m)[:nnz] {
			if i == slackRows[k] {
				continue
			}
			v := math.Round(g.NormFloat64()*4) / 2
			switch g.IntN(20) {
			case 0:
				v = 0
			case 1:
				v = 1e-12
			case 2:
				v = g.NormFloat64()
			}
			cols[k] = append(cols[k], colEntry{int32(i), v})
		}
	}
	if singular && m > 1 {
		switch g.IntN(3) {
		case 0:
			cols[g.IntN(m)] = nil
		case 1:
			a, b := g.IntN(m), g.IntN(m)
			cols[a] = append([]colEntry(nil), cols[b]...)
		default:
			for k := range cols {
				for x := range cols[k] {
					cols[k][x].row %= int32(m/2 + 1)
				}
				cols[k] = dedupRows(cols[k])
			}
		}
	}
	return cols
}

// dedupRows keeps the first entry of each row.
func dedupRows(col []colEntry) []colEntry {
	seen := map[int32]bool{}
	out := col[:0]
	for _, e := range col {
		if !seen[e.row] {
			seen[e.row] = true
			out = append(out, e)
		}
	}
	return out
}

// checkFactorize factorizes cols with f (whose storage is reused) and
// with the reference, and compares the results and errors.
func checkFactorize(f *luFactor, m int, cols [][]colEntry) error {
	var want refLU
	werr := factorizeRef(&want, m, cols)
	gerr := f.factorize(m, cols)
	if gerr != werr {
		return fmt.Errorf("error %v, reference %v", gerr, werr)
	}
	return sameFactor(f, &want)
}

// TestFactorizeMatchesRef compares the marked-column elimination with the
// full-rescan reference bit for bit, the error result included, on
// random sparse and dense bases of varying size through one reused
// factor.
func TestFactorizeMatchesRef(t *testing.T) {
	g := rand.New(rand.NewPCG(1, 27))
	var f luFactor
	singular, steps := 0, 0
	for c := 0; c < 3000; c++ {
		m := g.IntN(60)
		if c%7 == 0 {
			m = g.IntN(4)
		}
		cols := randomBasis(g, m, c%5 == 0, c%4 == 0)
		if err := checkFactorize(&f, m, cols); err != nil {
			t.Fatalf("case %d (m=%d): %v", c, m, err)
		}
		if f.factorize(m, cols) != nil {
			singular++
		}
		steps += len(f.prow)
	}
	if singular < 100 || steps < 20000 {
		t.Fatalf("only %d singular cases and %d steps", singular, steps)
	}
	t.Logf("%d elimination steps, %d singular bases bit-identical", steps, singular)
}

// FuzzFactorize compares the elimination with the reference on random
// bases drawn from the fuzzed seed and shape.
func FuzzFactorize(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(1))
	f.Add(uint64(3), uint8(30), uint8(2))
	f.Add(uint64(4), uint8(1), uint8(3))
	f.Add(uint64(5), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, size, mode uint8) {
		g := rand.New(rand.NewPCG(seed, uint64(size)<<8|uint64(mode)))
		m := int(size) % 80
		cols := randomBasis(g, m, mode&1 != 0, mode&2 != 0)
		var lu luFactor
		if err := checkFactorize(&lu, m, cols); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkFactorize times the marked-column elimination against the
// full-rescan reference on a mostly-slack 400-row basis.
func BenchmarkFactorize(b *testing.B) {
	g := rand.New(rand.NewPCG(9, 9))
	const m = 400
	var cols [][]colEntry
	for {
		cols = randomBasis(g, m, false, false)
		var ref refLU
		if factorizeRef(&ref, m, cols) == nil {
			break
		}
	}
	b.Run("marked", func(b *testing.B) {
		var f luFactor
		for i := 0; i < b.N; i++ {
			if err := f.factorize(m, cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ref", func(b *testing.B) {
		var f refLU
		for i := 0; i < b.N; i++ {
			if err := factorizeRef(&f, m, cols); err != nil {
				b.Fatal(err)
			}
		}
	})
}
