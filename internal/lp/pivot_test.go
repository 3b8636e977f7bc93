package lp

import (
	"fmt"
	"math"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/rng"
)

// The production pivots of both dense kernels update only the scaled
// pivot row's nonzero columns. The reference pivots below are the
// full-row Gauss–Jordan loops they replaced. The tests check that the
// two agree bit for bit on every nonzero entry after every pivot (a
// skipped column may differ only in the sign of an exact zero), and that
// whole solves through either pivot return the same X and objective bits
// and the same pivot counts.

// refSolverPivot is Solver.pivot with the full-row update.
func (s *Solver) refSolverPivot(r, e int, bnd float64) {
	te := s.t[r][e]
	dv := (s.xB[r] - bnd) / te
	ve := s.colVal(e)
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		if f := s.t[i][e]; f != 0 {
			s.xB[i] -= f * dv
		}
	}
	l := s.basis[r]
	s.pos[l] = -1
	s.atUpper[l] = bnd == s.hi[l]
	s.basis[r] = e
	s.pos[e] = r
	s.xB[r] = ve + dv
	pr := s.t[r]
	inv := 1 / te
	for j := range pr {
		pr[j] *= inv
	}
	pr[e] = 1
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		row := s.t[i]
		if f := row[e]; f != 0 {
			for j := range row {
				row[j] -= f * pr[j]
			}
			row[e] = 0
		}
	}
	if f := s.z[e]; f != 0 {
		for j := range s.z {
			s.z[j] -= f * pr[j]
		}
		s.z[e] = 0
	}
}

// refTableauPivot is tableau.pivot with the full-row update.
func refTableauPivot(t *tableau, r, c int) {
	pr := t.a[r]
	inv := 1 / pr[c]
	for j := 0; j <= t.n; j++ {
		pr[j] *= inv
	}
	pr[c] = 1
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][c]
		if f == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j <= t.n; j++ {
			row[j] -= f * pr[j]
		}
		row[c] = 0
	}
	if f := t.z[c]; f != 0 {
		for j := 0; j <= t.n; j++ {
			t.z[j] -= f * pr[j]
		}
		t.z[c] = 0
		t.zv += f * pr[t.n]
	}
}

// sameBits reports whether a and b agree entry by entry: equal bits for
// nonzero values, and any zero for zero values.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for j := range a {
		if a[j] == 0 && b[j] == 0 {
			continue
		}
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return fmt.Errorf("entry %d: %v vs %v", j, a[j], b[j])
		}
	}
	return nil
}

// copySolverState deep-copies the part of s a pivot reads or writes.
func copySolverState(s *Solver) *Solver {
	c := *s
	c.t = make([][]float64, len(s.t))
	for i, row := range s.t {
		c.t[i] = append([]float64(nil), row...)
	}
	c.xB = append([]float64(nil), s.xB...)
	c.z = append([]float64(nil), s.z...)
	c.basis = append([]int(nil), s.basis...)
	c.pos = append([]int(nil), s.pos...)
	c.atUpper = append([]bool(nil), s.atUpper...)
	c.nz = nil
	c.refPivot = nil
	return &c
}

func compareSolverState(got, want *Solver) error {
	if len(got.t) != len(want.t) {
		return fmt.Errorf("rows %d vs %d", len(got.t), len(want.t))
	}
	for i := range got.t {
		if err := sameBits(got.t[i], want.t[i]); err != nil {
			return fmt.Errorf("t[%d]: %v", i, err)
		}
	}
	if err := sameBits(got.xB, want.xB); err != nil {
		return fmt.Errorf("xB: %v", err)
	}
	if err := sameBits(got.z, want.z); err != nil {
		return fmt.Errorf("z: %v", err)
	}
	for i := range got.basis {
		if got.basis[i] != want.basis[i] {
			return fmt.Errorf("basis[%d]: %d vs %d", i, got.basis[i], want.basis[i])
		}
	}
	for j := range got.pos {
		if got.pos[j] != want.pos[j] || got.atUpper[j] != want.atUpper[j] {
			return fmt.Errorf("column %d: pos/atUpper differ", j)
		}
	}
	return nil
}

// sameSolution requires bit-identical X and objective and equal pivot
// counts.
func sameSolution(got, want *Solution) error {
	if got.Status != want.Status || got.Iterations != want.Iterations {
		return fmt.Errorf("status/pivots %v/%d vs %v/%d", got.Status, got.Iterations, want.Status, want.Iterations)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Errorf("objective %v vs %v", got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) {
		return fmt.Errorf("len(X) %d vs %d", len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Errorf("x[%d] %v vs %v", j, got.X[j], want.X[j])
		}
	}
	return nil
}

// TestSolverPivotMatchesFullRow drives two warm solvers over the same
// arena through random bound, row and RHS mutations: one pivots with the
// production kernel, the other with the full-row reference. Each
// reference pivot is also replayed through the production kernel on a
// deep copy of the pre-pivot state, and the two states must agree.
func TestSolverPivotMatchesFullRow(t *testing.T) {
	g := rng.NewSource(77).Stream("pivot")
	pivots, solves := 0, 0
	for seed := uint64(0); seed < 150; seed++ {
		p := randomBoxLP(seed+9000, 14, 12)
		prod, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		var fail error
		ref.refPivot = func(r, e int, bnd float64) {
			c := copySolverState(ref)
			c.pivot(r, e, bnd)
			ref.refSolverPivot(r, e, bnd)
			pivots++
			if err := compareSolverState(c, ref); err != nil && fail == nil {
				fail = fmt.Errorf("pivot (%d, %d): %v", r, e, err)
			}
		}
		rootLo := append([]float64(nil), p.Lo...)
		rootHi := append([]float64(nil), p.Hi...)
		curLo := append([]float64(nil), p.Lo...)
		curHi := append([]float64(nil), p.Hi...)
		for step := 0; step < 30; step++ {
			op := g.Uniform(0, 1)
			switch {
			case step == 0: // cold solve first
			case op < 0.35:
				j := int(g.Uniform(0, float64(p.NumVars)))
				lo, hi := curLo[j], curHi[j]
				if g.Uniform(0, 1) < 0.5 {
					hi = lo + (hi-lo)*g.Uniform(0.2, 0.95)
				} else {
					lo = hi - (hi-lo)*g.Uniform(0.2, 0.95)
				}
				if g.Uniform(0, 1) < 0.2 {
					hi = lo // fix, as branching does
				}
				curLo[j], curHi[j] = lo, hi
				prod.SetVarBounds(j, lo, hi)
				ref.SetVarBounds(j, lo, hi)
			case op < 0.45:
				j := int(g.Uniform(0, float64(p.NumVars)))
				curLo[j], curHi[j] = rootLo[j], rootHi[j]
				prod.SetVarBounds(j, rootLo[j], rootHi[j])
				ref.SetVarBounds(j, rootLo[j], rootHi[j])
			case op < 0.75: // a sparse cut row
				coefs := make([]float64, p.NumVars)
				for k := range coefs {
					if g.Uniform(0, 1) < 0.4 {
						coefs[k] = g.Uniform(-2, 2)
					}
				}
				sense := linexpr.LE
				if g.Uniform(0, 1) < 0.4 {
					sense = linexpr.GE
				}
				p.AddRow("", coefs, sense, g.Uniform(-3, 10))
			default:
				i := int(g.Uniform(0, float64(len(p.Rows))))
				d := g.Uniform(0, 5)
				switch p.Rows[i].Sense {
				case linexpr.GE:
					d = -d
				case linexpr.EQ:
					d = 0
				}
				nr := p.Rows[i].RHS + d
				p.Rows[i].RHS = nr
				prod.SetRowRHS(i, nr)
				ref.SetRowRHS(i, nr)
			}
			got, err := prod.Solve()
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if fail != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, fail)
			}
			if err := sameSolution(got, want); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			solves++
		}
		if a, b := prod.Stats(), ref.Stats(); a != b {
			t.Fatalf("seed %d: stats %+v vs reference %+v", seed, a, b)
		}
	}
	if pivots < 1000 {
		t.Fatalf("only %d pivots checked", pivots)
	}
	t.Logf("%d solves, %d pivots bit-identical", solves, pivots)
}

// TestTableauPivotMatchesFullRow runs the two-phase Solve through the
// production and the full-row reference pivot on random LPs, with random
// bound and RHS mutations, checking the tableau after every pivot and the
// final solutions bit for bit.
func TestTableauPivotMatchesFullRow(t *testing.T) {
	g := rng.NewSource(78).Stream("pivot")
	pivots := 0
	for seed := uint64(0); seed < 200; seed++ {
		p := randomBoxLP(seed+11000, 8, 10)
		for k := 0; k < 3; k++ {
			j := int(g.Uniform(0, float64(p.NumVars)))
			switch {
			case g.Uniform(0, 1) < 0.2:
				p.Lo[j] = math.Inf(-1) // free or mirrored columns
			case g.Uniform(0, 1) < 0.3:
				p.Hi[j] = math.Inf(1)
			default:
				p.Hi[j] = p.Lo[j] + (p.Hi[j]-p.Lo[j])*g.Uniform(0, 1)
			}
			i := int(g.Uniform(0, float64(len(p.Rows))))
			p.Rows[i].RHS += g.Uniform(-3, 3)
		}
		var fail error
		check := func(tb *tableau, r, c int) {
			cp := &tableau{m: tb.m, n: tb.n, z: append([]float64(nil), tb.z...), zv: tb.zv}
			cp.nz = make([]int32, 0, tb.n+1)
			for _, row := range tb.a {
				cp.a = append(cp.a, append([]float64(nil), row...))
			}
			cp.pivot(r, c)
			refTableauPivot(tb, r, c)
			pivots++
			if fail != nil {
				return
			}
			for i := range tb.a {
				if err := sameBits(cp.a[i], tb.a[i]); err != nil {
					fail = fmt.Errorf("pivot (%d, %d) row %d: %v", r, c, i, err)
					return
				}
			}
			if err := sameBits(cp.z, tb.z); err != nil {
				fail = fmt.Errorf("pivot (%d, %d) z: %v", r, c, err)
			} else if err := sameBits([]float64{cp.zv}, []float64{tb.zv}); err != nil {
				fail = fmt.Errorf("pivot (%d, %d) zv: %v", r, c, err)
			}
		}
		want, err := solveWith(p, check)
		if err != nil {
			t.Fatal(err)
		}
		if fail != nil {
			t.Fatalf("seed %d: %v", seed, fail)
		}
		got, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSolution(got, want); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sameBits(got.ShadowPrices, want.ShadowPrices); err != nil {
			t.Fatalf("seed %d: shadow prices: %v", seed, err)
		}
	}
	if pivots < 1000 {
		t.Fatalf("only %d pivots checked", pivots)
	}
	t.Logf("%d pivots bit-identical", pivots)
}
