package lp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/rng"
)

// The production pivot of the two-phase tableau (lp.go) updates only the
// scaled pivot row's nonzero columns, and the warm Solver (warm.go)
// stores only its nonbasic columns. The references below are the
// full-row, full-width Gauss–Jordan code they replaced. The tests check
// that each pair agrees bit for bit on every nonzero entry after every
// pivot (a skipped or implicit entry may differ only in the sign of an
// exact zero), and that whole solves return the same X and objective bits
// and the same pivot counts.

// fullSolver is the warm Solver as it was before it dropped the basic
// columns: the tableau holds all of B⁻¹[A I] over the N = n+m columns,
// reduced costs are indexed by column, and the pivot is the full-row
// Gauss–Jordan step. It exists only as a bit-for-bit reference. Its
// row, reduced-cost and xB updates round each product, float64(f·x), as
// the Solver's do, so no architecture fuses one side and not the other.
type fullSolver struct {
	p               *linexpr.Compiled
	n, m            int
	rowOf, arenaIdx []int
	rhs             []float64
	lo, hi, z       []float64
	atUpper         []bool
	pos, basis      []int
	t               [][]float64
	xB              []float64
	built           bool
	stats           SolverStats
	blandAlways     bool
	pivoted         func()
}

func newFullSolver(p *linexpr.Compiled) *fullSolver {
	s := &fullSolver{p: p, n: p.NumVars}
	s.lo = append(s.lo, p.Lo...)
	s.hi = append(s.hi, p.Hi...)
	s.atUpper = make([]bool, s.n)
	s.z = make([]float64, s.n)
	s.pos = make([]int, s.n)
	for j := range s.pos {
		s.pos[j] = -1
	}
	return s
}

func (s *fullSolver) colVal(j int) float64 {
	if r := s.pos[j]; r >= 0 {
		return s.xB[r]
	}
	if s.atUpper[j] {
		return s.hi[j]
	}
	return s.lo[j]
}

func (s *fullSolver) SetVarBounds(j int, lo, hi float64) {
	if s.built && s.pos[j] < 0 {
		old := s.colVal(j)
		s.lo[j], s.hi[j] = lo, hi
		if lo != hi {
			if s.z[j] > Tolerance {
				s.atUpper[j] = false
			} else if s.z[j] < -Tolerance {
				s.atUpper[j] = true
			}
		}
		if d := s.colVal(j) - old; d != 0 {
			for i := 0; i < s.m; i++ {
				s.xB[i] -= float64(s.t[i][j] * d)
			}
		}
		return
	}
	s.lo[j], s.hi[j] = lo, hi
}

func (s *fullSolver) SetRowRHS(arenaRow int, rhs float64) {
	s.sync()
	r := s.rowOf[arenaRow]
	d := rhs - s.rhs[r]
	s.rhs[r] = rhs
	if !s.built || d == 0 {
		return
	}
	for i := 0; i < s.m; i++ {
		s.xB[i] += float64(s.t[i][s.n+r] * d)
	}
}

func (s *fullSolver) sync() {
	for len(s.rowOf) < len(s.p.Rows) {
		s.ingestRow(len(s.rowOf))
	}
}

func (s *fullSolver) ingestRow(arenaRow int) {
	row := &s.p.Rows[arenaRow]
	r := s.m
	sc := s.n + r
	s.rowOf = append(s.rowOf, r)
	s.arenaIdx = append(s.arenaIdx, arenaRow)
	s.rhs = append(s.rhs, row.RHS)
	slo, shi := slackBounds(row.Sense)
	s.lo = append(s.lo, slo)
	s.hi = append(s.hi, shi)
	s.atUpper = append(s.atUpper, false)
	s.z = append(s.z, 0)
	s.pos = append(s.pos, -1)
	if !s.built {
		s.m++
		return
	}
	for i := 0; i < s.m; i++ {
		s.t[i] = append(s.t[i], 0)
	}
	w := make([]float64, sc+1)
	copy(w, row.Coefs)
	for i := 0; i < s.m; i++ {
		f := w[s.basis[i]]
		if f == 0 {
			continue
		}
		for j, v := range s.t[i] {
			w[j] -= float64(f * v)
		}
		w[s.basis[i]] = 0
	}
	w[sc] = 1
	v := row.RHS
	for j := 0; j < s.n; j++ {
		if c := row.Coefs[j]; c != 0 {
			v -= float64(c * s.colVal(j))
		}
	}
	s.t = append(s.t, w)
	s.basis = append(s.basis, sc)
	s.xB = append(s.xB, v)
	s.pos[sc] = r
	s.m++
}

func (s *fullSolver) DropRow(arenaRow int) bool {
	s.sync()
	r := s.rowOf[arenaRow]
	if r < 0 {
		return true
	}
	sc := s.n + r
	if s.built {
		rb := s.pos[sc]
		if rb < 0 {
			return false
		}
		s.t = slices.Delete(s.t, rb, rb+1)
		s.xB = slices.Delete(s.xB, rb, rb+1)
		s.basis = slices.Delete(s.basis, rb, rb+1)
		for i, ti := range s.t {
			s.t[i] = slices.Delete(ti, sc, sc+1)
		}
	}
	s.z = slices.Delete(s.z, sc, sc+1)
	s.lo = slices.Delete(s.lo, sc, sc+1)
	s.hi = slices.Delete(s.hi, sc, sc+1)
	s.atUpper = slices.Delete(s.atUpper, sc, sc+1)
	s.rhs = slices.Delete(s.rhs, r, r+1)
	s.arenaIdx = slices.Delete(s.arenaIdx, r, r+1)
	s.rowOf[arenaRow] = -1
	for _, a := range s.arenaIdx[r:] {
		s.rowOf[a]--
	}
	s.m--
	s.pos = s.pos[:s.n+s.m]
	s.stats.RowsDropped++
	if s.built {
		for j := range s.pos {
			s.pos[j] = -1
		}
		for i, b := range s.basis {
			if b > sc {
				s.basis[i] = b - 1
			}
			s.pos[s.basis[i]] = i
		}
	}
	return true
}

func (s *fullSolver) rebuild() {
	N := s.n + s.m
	s.t = make([][]float64, s.m)
	for i := range s.t {
		s.t[i] = make([]float64, N)
		copy(s.t[i], s.p.Rows[s.arenaIdx[i]].Coefs)
		s.t[i][s.n+i] = 1
	}
	s.basis, s.xB, s.z = s.basis[:0], s.xB[:0], s.z[:0]
	s.pos = s.pos[:0]
	for j := 0; j < N; j++ {
		s.pos = append(s.pos, -1)
	}
	for j := 0; j < s.n; j++ {
		s.z = append(s.z, s.p.Obj[j])
		s.atUpper[j] = s.p.Obj[j] < 0
	}
	for r := 0; r < s.m; r++ {
		s.z = append(s.z, 0)
		s.atUpper[s.n+r] = false
		s.basis = append(s.basis, s.n+r)
		s.pos[s.n+r] = r
	}
	for i := 0; i < s.m; i++ {
		v := s.rhs[i]
		for j, c := range s.p.Rows[s.arenaIdx[i]].Coefs {
			if c != 0 {
				v -= float64(c * s.colVal(j))
			}
		}
		s.xB = append(s.xB, v)
	}
	s.built = true
}

func (s *fullSolver) pivot(r, e int, bnd float64) {
	te := s.t[r][e]
	dv := (s.xB[r] - bnd) / te
	ve := s.colVal(e)
	for i := 0; i < s.m; i++ {
		if f := s.t[i][e]; i != r && f != 0 {
			s.xB[i] -= float64(f * dv)
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
	for i, row := range s.t {
		if f := row[e]; i != r && f != 0 {
			for j := range row {
				row[j] -= float64(f * pr[j])
			}
			row[e] = 0
		}
	}
	if f := s.z[e]; f != 0 {
		for j := range s.z {
			s.z[j] -= float64(f * pr[j])
		}
		s.z[e] = 0
	}
}

func (s *fullSolver) dual() Status {
	N := s.n + s.m
	maxIter := 200 * (s.m + N + 10)
	blandAfter := 20 * (s.m + N + 10)
	if s.blandAlways {
		blandAfter = 0
	}
	stall := 0
	for iter := 0; iter < maxIter; iter++ {
		r, below := -1, false
		if iter >= blandAfter || stall > s.m {
			first := N
			for i, b := range s.basis {
				if b >= first {
					continue
				}
				if s.lo[b]-s.xB[i] > Tolerance {
					first, r, below = b, i, true
				} else if s.xB[i]-s.hi[b] > Tolerance {
					first, r, below = b, i, false
				}
			}
		} else {
			worst := Tolerance
			for i, b := range s.basis {
				if v := s.lo[b] - s.xB[i]; v > worst {
					worst, r, below = v, i, true
				} else if v := s.xB[i] - s.hi[b]; v > worst {
					worst, r, below = v, i, false
				}
			}
		}
		if r < 0 {
			s.stats.Pivots += iter
			return Optimal
		}
		tr := s.t[r]
		e, best := -1, math.Inf(1)
		for j := 0; j < N; j++ {
			if s.pos[j] >= 0 || s.lo[j] == s.hi[j] {
				continue
			}
			a := tr[j]
			var ratio float64
			if below {
				if s.atUpper[j] {
					if a <= Tolerance {
						continue
					}
					ratio = -s.z[j] / a
				} else {
					if a >= -Tolerance {
						continue
					}
					ratio = s.z[j] / -a
				}
			} else {
				if s.atUpper[j] {
					if a >= -Tolerance {
						continue
					}
					ratio = s.z[j] / a
				} else {
					if a <= Tolerance {
						continue
					}
					ratio = s.z[j] / a
				}
			}
			if ratio < 0 {
				ratio = 0
			}
			if ratio < best-1e-12 {
				best, e = ratio, j
			}
		}
		if e < 0 {
			s.stats.Pivots += iter
			return Infeasible
		}
		if best <= 1e-12 {
			stall++
		} else {
			stall = 0
		}
		bnd := s.lo[s.basis[r]]
		if !below {
			bnd = s.hi[s.basis[r]]
		}
		s.pivot(r, e, bnd)
		if s.pivoted != nil {
			s.pivoted()
		}
	}
	s.stats.Pivots += maxIter
	s.stats.IterationCaps++
	return IterationLimit
}

func (s *fullSolver) Solve() *Solution {
	s.sync()
	warm := s.built
	if warm {
		s.stats.WarmSolves++
	} else {
		s.stats.ColdSolves++
		s.rebuild()
	}
	p0 := s.stats.Pivots
	st := s.dual()
	if st == Optimal {
		if sol := s.extract(); s.valid(sol.X) {
			sol.Iterations = s.stats.Pivots - p0
			return sol
		}
		st = IterationLimit
	}
	if st == IterationLimit && warm {
		s.stats.WarmSolves--
		s.stats.ColdSolves++
		s.stats.StaleRebuilds++
		s.rebuild()
		st = s.dual()
		if st == Optimal {
			if sol := s.extract(); s.valid(sol.X) {
				sol.Iterations = s.stats.Pivots - p0
				return sol
			}
			st = IterationLimit
		}
	}
	if st != Infeasible {
		st = IterationLimit
		s.built = false
	}
	return &Solution{Status: st, Iterations: s.stats.Pivots - p0}
}

func (s *fullSolver) valid(x []float64) bool {
	for r := 0; r < s.m; r++ {
		act := 0.0
		for j, c := range s.p.Rows[s.arenaIdx[r]].Coefs {
			if c != 0 {
				act += float64(c * x[j])
			}
		}
		if math.Abs(act+s.colVal(s.n+r)-s.rhs[r]) > 1e-6*(1+math.Abs(s.rhs[r])) {
			return false
		}
	}
	return true
}

func (s *fullSolver) extract() *Solution {
	x := make([]float64, s.n)
	z := s.p.ObjConst
	for j := range x {
		x[j] = s.colVal(j)
		if c := s.p.Obj[j]; c != 0 {
			z += float64(c * x[j])
		}
	}
	if s.p.Negated {
		z = -z
	}
	return &Solution{Status: Optimal, X: x, Objective: z}
}

// snapshot deep-copies the state a pivot reads or writes.
func (s *fullSolver) snapshot() *fullSolver {
	c := &fullSolver{n: s.n, m: s.m}
	for _, row := range s.t {
		c.t = append(c.t, slices.Clone(row))
	}
	c.xB, c.z = slices.Clone(s.xB), slices.Clone(s.z)
	c.basis, c.pos = slices.Clone(s.basis), slices.Clone(s.pos)
	c.atUpper = slices.Clone(s.atUpper)
	return c
}

// matchFull checks the production solver against a full-width state: the
// slot and column maps must be consistent, the nonbasic list must hold
// the slotted columns in ascending order, the row bounds must be those
// of each row's basic column, and the tableau expanded back to full
// width (implicit unit columns and zero reduced costs for the basic
// columns) must equal the reference bit for bit wherever either side is
// nonzero.
func matchFull(s *Solver, want *fullSolver) error {
	N := s.n + s.m
	if s.m != want.m || len(s.t) != s.m || len(s.col) != s.n || len(s.pos) != N || len(s.slot) != N {
		return fmt.Errorf("shape: m %d vs %d, %d rows, %d slots, %d/%d columns", s.m, want.m, len(s.t), len(s.col), len(s.pos), len(s.slot))
	}
	for k, j := range s.col {
		if s.slot[j] != k || s.pos[j] >= 0 {
			return fmt.Errorf("slot %d holds column %d, whose slot is %d and row %d", k, j, s.slot[j], s.pos[j])
		}
	}
	if !slices.Equal(s.basis, want.basis) || !slices.Equal(s.pos, want.pos) || !slices.Equal(s.atUpper, want.atUpper) {
		return fmt.Errorf("basis %v vs %v", s.basis, want.basis)
	}
	var nonbasic []int
	for j, k := range s.slot {
		if k >= 0 {
			nonbasic = append(nonbasic, j)
		}
	}
	if !slices.Equal(s.nonbasic, nonbasic) {
		return fmt.Errorf("nonbasic list %v, slotted columns %v", s.nonbasic, nonbasic)
	}
	if len(s.loB) != s.m || len(s.hiB) != s.m {
		return fmt.Errorf("%d/%d row bounds for %d rows", len(s.loB), len(s.hiB), s.m)
	}
	for i, b := range s.basis {
		if s.loB[i] != s.lo[b] || s.hiB[i] != s.hi[b] {
			return fmt.Errorf("row %d bounds [%v, %v], column %d's [%v, %v]", i, s.loB[i], s.hiB[i], b, s.lo[b], s.hi[b])
		}
	}
	z := make([]float64, N)
	for k, j := range s.col {
		z[j] = s.z[k]
	}
	if err := sameBits(z, want.z); err != nil {
		return fmt.Errorf("z: %v", err)
	}
	if err := sameBits(s.xB, want.xB); err != nil {
		return fmt.Errorf("xB: %v", err)
	}
	row := make([]float64, N)
	for i, ti := range s.t {
		clear(row)
		for k, j := range s.col {
			row[j] = ti[k]
		}
		row[s.basis[i]] = 1
		if err := sameBits(row, want.t[i]); err != nil {
			return fmt.Errorf("t[%d]: %v", i, err)
		}
	}
	return nil
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
			row[j] -= float64(f * pr[j])
		}
		row[c] = 0
	}
	if f := t.z[c]; f != 0 {
		for j := 0; j <= t.n; j++ {
			t.z[j] -= float64(f * pr[j])
		}
		t.z[c] = 0
		t.zv += float64(f * pr[t.n])
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

// randomTieLP is randomBoxLP with small-integer data: boxes [0, 1..3],
// coefficients and right-hand sides that are integers, and costs in
// {-1, 0, 1}. Its vertices are degenerate and its ratio tests tie, which
// is where the order of the ratio-test visit picks the entering column.
func randomTieLP(seed uint64, nv, nc int) *linexpr.Compiled {
	g := rng.NewSource(seed).Stream("tietest")
	m := linexpr.NewModel()
	ids := make([]linexpr.VarID, nv)
	for i := range ids {
		ids[i] = m.NewVar("", linexpr.Continuous, 0, math.Round(g.Uniform(1, 3)))
	}
	for r := 0; r < nc; r++ {
		e := linexpr.Expr{}
		for _, id := range ids {
			if c := math.Round(g.Uniform(-2, 2)); c != 0 {
				e = e.PlusTerm(id, c)
			}
		}
		sense := linexpr.LE
		if g.Uniform(0, 1) < 0.2 {
			sense = linexpr.GE
		}
		m.Add("", e, sense, math.Round(g.Uniform(0, 6)))
	}
	obj := linexpr.Expr{}
	for _, id := range ids {
		obj = obj.PlusTerm(id, math.Round(g.Uniform(-1, 1)))
	}
	m.SetObjective(obj, g.Uniform(0, 1) < 0.3)
	return m.Compile()
}

// TestSolverPivotMatchesFullRow drives the production Solver and the
// full-width reference over the same arena through random bound, RHS,
// appended-row and dropped-row mutations. Each solve runs the reference
// first and records its state after every pivot; the production solve
// must pivot the same number of times and match each recorded state,
// then return the same X and objective bits, pivot count and stats.
func TestSolverPivotMatchesFullRow(t *testing.T) {
	for _, bland := range []bool{false, true} {
		name := "dense"
		if bland {
			name = "dense-bland"
		}
		t.Run(name, func(t *testing.T) { fullWidthPropertyTest(t, bland) })
	}
}

func fullWidthPropertyTest(t *testing.T, bland bool) {
	g := rng.NewSource(77).Stream("pivot")
	pivots, solves, drops := 0, 0, 0
	for seed := uint64(0); seed < 150; seed++ {
		// Odd seeds draw small-integer data, where ratio tests tie.
		ties := seed%2 == 1
		q := func(x float64) float64 {
			if ties {
				return math.Round(x)
			}
			return x
		}
		p := randomBoxLP(seed+9000, 14, 12)
		if ties {
			p = randomTieLP(seed+9000, 14, 12)
		}
		prod, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := newFullSolver(p)
		prod.blandAlways, ref.blandAlways = bland, bland
		var trail []*fullSolver
		ref.pivoted = func() { trail = append(trail, ref.snapshot()) }
		var fail error
		k := 0 // the production solve's pivots so far
		prod.pivoted = func() {
			k++
			pivots++
			if fail != nil {
				return
			}
			if k > len(trail) {
				fail = fmt.Errorf("pivot %d: the reference stopped after %d", k, len(trail))
			} else if err := matchFull(prod, trail[k-1]); err != nil {
				fail = fmt.Errorf("pivot %d: %v", k, err)
			}
		}
		rootLo := append([]float64(nil), p.Lo...)
		rootHi := append([]float64(nil), p.Hi...)
		curLo := append([]float64(nil), p.Lo...)
		curHi := append([]float64(nil), p.Hi...)
		dropped := make(map[int]bool)
		for step := 0; step < 30; step++ {
			op := g.Uniform(0, 1)
			switch {
			case step == 0: // cold solve first
			case op < 0.3:
				j := int(g.Uniform(0, float64(p.NumVars)))
				lo, hi := curLo[j], curHi[j]
				if g.Uniform(0, 1) < 0.5 {
					hi = q(lo + (hi-lo)*g.Uniform(0.2, 0.95))
				} else {
					lo = q(hi - (hi-lo)*g.Uniform(0.2, 0.95))
				}
				if g.Uniform(0, 1) < 0.2 {
					hi = lo // fix, as branching does
				}
				curLo[j], curHi[j] = lo, hi
				prod.SetVarBounds(j, lo, hi)
				ref.SetVarBounds(j, lo, hi)
			case op < 0.4:
				j := int(g.Uniform(0, float64(p.NumVars)))
				curLo[j], curHi[j] = rootLo[j], rootHi[j]
				prod.SetVarBounds(j, rootLo[j], rootHi[j])
				ref.SetVarBounds(j, rootLo[j], rootHi[j])
			case op < 0.65: // a sparse cut row
				coefs := make([]float64, p.NumVars)
				for k := range coefs {
					if g.Uniform(0, 1) < 0.4 {
						coefs[k] = q(g.Uniform(-2, 2))
					}
				}
				sense := linexpr.LE
				if g.Uniform(0, 1) < 0.4 {
					sense = linexpr.GE
				}
				p.AddRow("", coefs, sense, q(g.Uniform(-3, 10)))
			case op < 0.8: // drop a live row if its slack is basic
				i := pickLiveRow(g, len(p.Rows), dropped)
				if i < 0 {
					continue
				}
				ok := prod.DropRow(i)
				if ok != ref.DropRow(i) {
					t.Fatalf("seed %d step %d: DropRow(%d) disagrees", seed, step, i)
				}
				if ok {
					dropped[i] = true
					drops++
				}
			default:
				i := pickLiveRow(g, len(p.Rows), dropped)
				if i < 0 {
					continue
				}
				d := q(g.Uniform(0, 5))
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
			trail, k = trail[:0], 0
			want := ref.Solve()
			got, err := prod.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if fail == nil && k != len(trail) {
				fail = fmt.Errorf("%d pivots, reference %d", k, len(trail))
			}
			if fail == nil && prod.built != ref.built {
				fail = fmt.Errorf("built %v, reference %v", prod.built, ref.built)
			}
			if fail == nil && prod.built {
				fail = matchFull(prod, ref)
			}
			if fail != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, fail)
			}
			if err := sameSolution(got, want); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if a, b := prod.Stats(), ref.stats; a != b {
				t.Fatalf("seed %d step %d: stats %+v vs reference %+v", seed, step, a, b)
			}
			solves++
		}
	}
	if pivots < 1000 || drops < 100 {
		t.Fatalf("only %d pivots and %d drops checked", pivots, drops)
	}
	t.Logf("%d solves, %d pivots, %d drops bit-identical", solves, pivots, drops)
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
