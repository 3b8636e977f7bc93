// Bounded-variable dual simplex with a persistent tableau: the warm-start
// kernel behind internal/milp's branch-and-bound and Algorithm 1's
// repeated MILP oracle calls.
//
// Where Solve (lp.go) reduces every problem to standard form from scratch
// — shifting variables, adding explicit upper-bound rows, and running a
// two-phase primal simplex — a Solver keeps the problem in its natural
// bounded form
//
//	min c·x   s.t.  A·x + s = b,   lo ≤ (x, s) ≤ hi
//
// where each row's slack bounds encode its sense (≤: s ≥ 0, ≥: s ≤ 0,
// =: s = 0). Nonbasic variables rest on a bound, and the three mutations
// branch-and-bound and cutting-plane loops perform — tightening or
// relaxing a variable bound, appending a row, loosening a row's RHS —
// all preserve *dual* feasibility of the current basis:
//
//   - a bound change moves a nonbasic variable's resting value but not
//     its resting side, so the reduced-cost sign conditions still hold;
//   - an appended row enters with its own slack basic (cost 0);
//   - an RHS change only translates the basic values.
//
// Each re-solve is therefore a pure dual-simplex run from the inherited
// basis — typically a handful of pivots instead of a full two-phase
// solve. The tableau memory is reused across solves, appended cut rows
// are eliminated against the current basis in one pass, and retired cut
// rows whose slack is basic can be compacted out again (DropRow). A cold
// rebuild from the all-slack basis is the fallback whenever the warm
// basis goes numerically stale; because every structural variable is
// required to have finite bounds (Attach enforces this), the all-slack
// basis can always be made dual feasible by resting each variable on the
// bound matching its cost sign, so the dual simplex doubles as the cold
// solver and no phase-1 is ever needed.
package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hiopt/internal/linexpr"
)

// ErrUnboundedVar reports a structural variable with an infinite bound,
// which the bounded-variable kernel does not handle (callers fall back to
// the two-phase Solve).
var ErrUnboundedVar = errors.New("lp: warm solver requires finite variable bounds")

// SolverStats counts the work a Solver has done since creation.
type SolverStats struct {
	// Pivots is the total number of dual-simplex pivots.
	Pivots int
	// WarmSolves counts solves answered from the inherited basis.
	WarmSolves int
	// ColdSolves counts solves that (re)built the tableau from scratch —
	// the first solve plus every staleness fallback.
	ColdSolves int
	// RowsDropped counts retired cut rows compacted out of the tableau.
	RowsDropped int
	// StaleRebuilds counts warm solves whose result failed arena
	// validation (or whose dual pass stalled) and were retried cold.
	// A nonzero delta across a caller's solve sequence means earlier
	// *unvalidated* answers in that sequence — in particular Infeasible
	// claims — may have come from the same drifted tableau, so callers
	// should discard and redo the whole sequence on a fresh solver.
	StaleRebuilds int
	// Refactorizations counts sparse-basis LU factorizations (periodic
	// eta-file resets plus row-set changes). Always zero on the dense
	// kernel, which has no factorization to maintain.
	Refactorizations int
	// IterationCaps counts dual-simplex runs that stopped at their pivot
	// cap (a cycling or stalled run). Their pivots are wasted: a capped
	// warm run is retried cold, a capped cold run poisons the solver.
	IterationCaps int
}

// Solver is a persistent bounded-variable dual-simplex solver attached to
// one linexpr.Compiled arena problem. The attached problem's rows may
// grow between solves (AddRow/AddExprRow are ingested by the next Solve);
// variable bounds and row right-hand sides are changed through the
// Solver's own mutators so the tableau can track them incrementally. The
// Solver never mutates the arena itself.
//
// A Solver is not safe for concurrent use.
type Solver struct {
	p *linexpr.Compiled
	n int // structural columns
	m int // live rows

	// Row bookkeeping. rowOf maps an arena row index to its live solver
	// row (-1 when dropped); arenaIdx is the inverse for live rows. rhs is
	// the solver's authoritative right-hand side per live row (it may
	// diverge from the arena after SetRowRHS). Row coefficients are read
	// from the arena (AddRow copies them once; they are never mutated).
	rowOf    []int
	arenaIdx []int
	rhs      []float64
	sense    []linexpr.Sense

	// Column state over N = n+m columns: structurals 0..n-1, then the
	// slack of live row r at column n+r.
	lo, hi  []float64
	atUpper []bool
	z       []float64 // reduced costs (internal minimization sense)
	pos     []int     // column -> tableau row where it is basic, or -1

	// Tableau: t[i] is row i of B⁻¹[A I] over the N columns; basis[i] is
	// the column basic in row i and xB[i] its current value.
	t     [][]float64
	basis []int
	xB    []float64

	// nz is pivot scratch: the nonzero columns of the scaled pivot row.
	// Its capacity tracks N, so a pivot never allocates.
	nz []int32

	built bool // a valid basis/tableau exists
	stats SolverStats

	// WantDuals requests ShadowPrices on returned Solutions (off by
	// default: branch-and-bound has no use for them).
	WantDuals bool

	// blandAlways prices by the dual Bland rule from the first pivot
	// (tests only: it exercises the anti-cycling branch on every solve).
	blandAlways bool
	// refPivot, when set, runs in place of pivot (tests only: a reference
	// kernel checked bit for bit against the production one).
	refPivot func(r, e int, bnd float64)
}

// NewSolver attaches a solver to p. Every structural variable must have
// finite bounds; ErrUnboundedVar is returned otherwise.
func NewSolver(p *linexpr.Compiled) (*Solver, error) {
	for j := 0; j < p.NumVars; j++ {
		if math.IsInf(p.Lo[j], 0) || math.IsInf(p.Hi[j], 0) {
			return nil, fmt.Errorf("%w: %q in [%g, %g]", ErrUnboundedVar, p.Names[j], p.Lo[j], p.Hi[j])
		}
	}
	s := &Solver{p: p, n: p.NumVars}
	s.lo = append(s.lo, p.Lo...)
	s.hi = append(s.hi, p.Hi...)
	s.atUpper = make([]bool, s.n)
	s.z = make([]float64, s.n)
	s.pos = make([]int, s.n)
	for j := range s.pos {
		s.pos[j] = -1
	}
	return s, nil
}

// Stats returns the accumulated work counters.
func (s *Solver) Stats() SolverStats { return s.stats }

// VarBounds returns the solver's current bounds of structural variable j
// (the arena's compiled bounds overlaid with every SetVarBounds call).
func (s *Solver) VarBounds(j int) (lo, hi float64) { return s.lo[j], s.hi[j] }

// ReducedCost returns the reduced cost of structural variable j in the
// internal minimization sense, or 0 when j is basic. At an optimal basis
// the sign identifies the resting side (positive at lower, negative at
// upper), and |z_j| lower-bounds the objective increase of moving j off
// its bound by one unit — the basis of reduced-cost fixing.
func (s *Solver) ReducedCost(j int) float64 {
	if !s.built || s.pos[j] >= 0 {
		return 0
	}
	return s.z[j]
}

// colVal is the current value of column j.
func (s *Solver) colVal(j int) float64 {
	if r := s.pos[j]; r >= 0 {
		return s.xB[r]
	}
	if s.atUpper[j] {
		return s.hi[j]
	}
	return s.lo[j]
}

// SetVarBounds installs new bounds for structural variable j. If j is
// nonbasic its resting value moves with the bound and the basic values
// are translated accordingly; dual feasibility is preserved either way,
// so the next Solve is a warm re-solve.
func (s *Solver) SetVarBounds(j int, lo, hi float64) {
	if s.built && s.pos[j] < 0 {
		old := s.colVal(j)
		s.lo[j], s.hi[j] = lo, hi
		// Re-rest the variable on the side its reduced cost requires.
		// While j was fixed (lo == hi) pivots may have driven z[j] to
		// either sign; after the fix is relaxed the old resting side can
		// be dual infeasible, which would make the next dual() run stop
		// at a suboptimal point.
		if lo != hi {
			if s.z[j] > Tolerance {
				s.atUpper[j] = false
			} else if s.z[j] < -Tolerance {
				s.atUpper[j] = true
			}
		}
		if d := s.colVal(j) - old; d != 0 {
			for i := 0; i < s.m; i++ {
				s.xB[i] -= s.t[i][j] * d
			}
		}
		return
	}
	s.lo[j], s.hi[j] = lo, hi
}

// SetRowRHS installs a new right-hand side for the arena row arenaRow
// (which must be live). Basic values are translated through the row's
// slack column; dual feasibility is preserved.
func (s *Solver) SetRowRHS(arenaRow int, rhs float64) {
	s.sync()
	r := s.rowOf[arenaRow]
	if r < 0 {
		panic(fmt.Sprintf("lp: SetRowRHS on dropped row %d", arenaRow))
	}
	d := rhs - s.rhs[r]
	s.rhs[r] = rhs
	if !s.built || d == 0 {
		return
	}
	sc := s.n + r
	for i := 0; i < s.m; i++ {
		s.xB[i] += s.t[i][sc] * d
	}
}

// slackBounds returns the bound box encoding a row sense.
func slackBounds(sense linexpr.Sense) (lo, hi float64) {
	switch sense {
	case linexpr.LE:
		return 0, math.Inf(1)
	case linexpr.GE:
		return math.Inf(-1), 0
	default: // EQ
		return 0, 0
	}
}

// sync ingests arena rows appended since the last solve. Each new row
// enters with its own slack basic: the row is eliminated against the
// current basis in one pass and the slack's value is computed directly in
// original coordinates, so optimality is disturbed only if the new row is
// violated — which the next dual-simplex run repairs.
func (s *Solver) sync() {
	for len(s.rowOf) < len(s.p.Rows) {
		s.ingestRow(len(s.rowOf))
	}
}

func (s *Solver) ingestRow(arenaRow int) {
	row := &s.p.Rows[arenaRow]
	r := s.m
	sc := s.n + r
	s.rowOf = append(s.rowOf, r)
	s.arenaIdx = append(s.arenaIdx, arenaRow)
	s.rhs = append(s.rhs, row.RHS)
	s.sense = append(s.sense, row.Sense)
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
	// Extend every live tableau row with the new slack column.
	for i := 0; i < s.m; i++ {
		s.t[i] = append(s.t[i], 0)
	}
	s.nz = slices.Grow(s.nz[:0], sc+1)
	// New tableau row: original coefficients, eliminated against the
	// current basis. One pass suffices because t[i][basis[k]] = δ_ik.
	w := make([]float64, sc+1)
	copy(w, row.Coefs)
	for i := 0; i < s.m; i++ {
		f := w[s.basis[i]]
		if f == 0 {
			continue
		}
		ti := s.t[i]
		for j := range ti {
			w[j] -= f * ti[j]
		}
		w[s.basis[i]] = 0
	}
	w[sc] = 1
	// Slack value in original coordinates: s = b − a·x.
	v := row.RHS
	for j := 0; j < s.n; j++ {
		if c := row.Coefs[j]; c != 0 {
			v -= c * s.colVal(j)
		}
	}
	s.t = append(s.t, w)
	s.basis = append(s.basis, sc)
	s.xB = append(s.xB, v)
	s.pos[sc] = r
	s.m++
}

// DropRow removes a retired arena row from the tableau, provided its
// slack is currently basic (always true once the row is non-binding at an
// optimal basis). It returns false — leaving the row in place, harmless —
// when the slack is nonbasic. Before the tableau exists (a fresh or
// poisoned solver) any row can be dropped unconditionally. The arena
// itself keeps the (loosened) row; only the solver stops carrying it.
func (s *Solver) DropRow(arenaRow int) bool {
	s.sync()
	r := s.rowOf[arenaRow]
	if r < 0 {
		return true // already dropped
	}
	sc := s.n + r
	if !s.built {
		// No live tableau: the slack-column state is whatever rebuild will
		// overwrite anyway, so deleting entry r from the row arrays and
		// entry sc from the column arrays is the whole job. This is how a
		// fresh solver sheds rows that died on a previous solver before it
		// ever pays for them in the basis.
		s.z = append(s.z[:sc], s.z[sc+1:]...)
		s.lo = append(s.lo[:sc], s.lo[sc+1:]...)
		s.hi = append(s.hi[:sc], s.hi[sc+1:]...)
		s.atUpper = append(s.atUpper[:sc], s.atUpper[sc+1:]...)
		s.pos = s.pos[:len(s.pos)-1]
		s.rhs = append(s.rhs[:r], s.rhs[r+1:]...)
		s.sense = append(s.sense[:r], s.sense[r+1:]...)
		s.arenaIdx = append(s.arenaIdx[:r], s.arenaIdx[r+1:]...)
		s.rowOf[arenaRow] = -1
		for _, a := range s.arenaIdx[r:] {
			s.rowOf[a]--
		}
		s.m--
		s.stats.RowsDropped++
		return true
	}
	rb := s.pos[sc]
	if rb < 0 {
		return false
	}
	// Deleting an equation whose slack is basic: the slack's column is
	// e_rb, so no other tableau row references it and removing tableau
	// row rb plus column sc yields exactly the reduced basis inverse.
	s.t = append(s.t[:rb], s.t[rb+1:]...)
	s.xB = append(s.xB[:rb], s.xB[rb+1:]...)
	s.basis = append(s.basis[:rb], s.basis[rb+1:]...)
	for i := range s.t {
		ti := s.t[i]
		s.t[i] = append(ti[:sc], ti[sc+1:]...)
	}
	s.z = append(s.z[:sc], s.z[sc+1:]...)
	s.lo = append(s.lo[:sc], s.lo[sc+1:]...)
	s.hi = append(s.hi[:sc], s.hi[sc+1:]...)
	s.atUpper = append(s.atUpper[:sc], s.atUpper[sc+1:]...)
	// Row bookkeeping: live rows after r shift down by one.
	s.rhs = append(s.rhs[:r], s.rhs[r+1:]...)
	s.sense = append(s.sense[:r], s.sense[r+1:]...)
	s.arenaIdx = append(s.arenaIdx[:r], s.arenaIdx[r+1:]...)
	s.rowOf[arenaRow] = -1
	for _, a := range s.arenaIdx[r:] {
		s.rowOf[a]--
	}
	s.m--
	// Column indices above sc shifted down by one.
	s.pos = s.pos[:s.n+s.m]
	for j := range s.pos {
		s.pos[j] = -1
	}
	for i, b := range s.basis {
		if b > sc {
			s.basis[i] = b - 1
		}
		s.pos[s.basis[i]] = i
	}
	s.stats.RowsDropped++
	return true
}

// rebuild constructs the all-slack tableau from the arena rows and the
// solver's current bound/RHS state, resting each structural variable on
// the bound matching its cost sign so the start is dual feasible.
func (s *Solver) rebuild() {
	N := s.n + s.m
	if cap(s.t) < s.m {
		s.t = make([][]float64, s.m)
	}
	s.t = s.t[:s.m]
	if cap(s.nz) < N {
		s.nz = make([]int32, 0, N)
	}
	for i := 0; i < s.m; i++ {
		if cap(s.t[i]) < N {
			s.t[i] = make([]float64, N)
		}
		ti := s.t[i][:N]
		for j := range ti {
			ti[j] = 0
		}
		copy(ti, s.p.Rows[s.arenaIdx[i]].Coefs)
		ti[s.n+i] = 1
		s.t[i] = ti
	}
	s.basis = s.basis[:0]
	s.xB = s.xB[:0]
	s.pos = s.pos[:0]
	for j := 0; j < N; j++ {
		s.pos = append(s.pos, -1)
	}
	s.z = s.z[:0]
	for j := 0; j < s.n; j++ {
		c := s.p.Obj[j]
		s.z = append(s.z, c)
		s.atUpper[j] = c < 0
	}
	for r := 0; r < s.m; r++ {
		s.z = append(s.z, 0)
		s.atUpper[s.n+r] = false
		s.basis = append(s.basis, s.n+r)
		s.pos[s.n+r] = r
	}
	for i := 0; i < s.m; i++ {
		v := s.rhs[i]
		coefs := s.p.Rows[s.arenaIdx[i]].Coefs
		for j := 0; j < s.n; j++ {
			if c := coefs[j]; c != 0 {
				if s.atUpper[j] {
					v -= c * s.hi[j]
				} else {
					v -= c * s.lo[j]
				}
			}
		}
		s.xB = append(s.xB, v)
	}
	s.built = true
}

// pivot performs a dual-simplex pivot: the basic variable of row r leaves
// to bound bnd, column e enters.
func (s *Solver) pivot(r, e int, bnd float64) {
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
	// Row reduction over the scaled pivot row's nonzero columns only: a
	// zero entry would subtract f·(±0), which leaves the target entry
	// unchanged except possibly for the sign of an exact zero, and no
	// comparison or divisor depends on that sign (DESIGN.md §10).
	pr := s.t[r]
	inv := 1 / te
	nz := s.nz[:0]
	for j := range pr {
		pr[j] *= inv
		if pr[j] != 0 {
			nz = append(nz, int32(j))
		}
	}
	pr[e] = 1
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		row := s.t[i]
		if f := row[e]; f != 0 {
			for _, j := range nz {
				row[j] -= f * pr[j]
			}
			row[e] = 0
		}
	}
	if f := s.z[e]; f != 0 {
		for _, j := range nz {
			s.z[j] -= f * pr[j]
		}
		s.z[e] = 0
	}
}

// dual runs the dual simplex to primal feasibility. It returns Optimal,
// Infeasible, or IterationLimit.
//
// The leaving row is the most-violated basic. Under pool no-good cuts
// the optimum slab is highly degenerate, and most-violated pricing can
// cycle there: pivot after pivot with a zero ratio-test step, up to the
// iteration cap. So once more than m consecutive pivots have been
// degenerate (step ≤ 1e-12), pricing switches to the dual Bland rule:
// the violated basic with the smallest column index leaves, and the
// ratio test's smallest-index tie-break picks the entering column. That
// pair cannot cycle. The next non-degenerate pivot restores
// most-violated pricing; past blandAfter pivots Bland pricing stays on.
func (s *Solver) dual() Status {
	N := s.n + s.m
	maxIter := 200 * (s.m + N + 10)
	blandAfter := 20 * (s.m + N + 10)
	if s.blandAlways {
		blandAfter = 0
	}
	stall := 0 // consecutive degenerate pivots
	for iter := 0; iter < maxIter; iter++ {
		r, below := -1, false
		if iter >= blandAfter || stall > s.m {
			// Dual Bland: smallest basic column index among the violated.
			first := N
			for i := 0; i < s.m; i++ {
				b := s.basis[i]
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
			for i := 0; i < s.m; i++ {
				b := s.basis[i]
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
		// Entering column by the bounded-variable dual ratio test. When
		// the leaving basic is below its lower bound it must increase:
		// at-lower columns with negative row entry or at-upper columns
		// with positive entry qualify; the symmetric case mirrors the
		// signs. The minimum |z/α| keeps every reduced cost on its
		// feasible side; ties break on the smallest column index.
		tr := s.t[r]
		e := -1
		best := math.Inf(1)
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
		if s.refPivot != nil {
			s.refPivot(r, e, bnd)
		} else {
			s.pivot(r, e, bnd)
		}
	}
	s.stats.Pivots += maxIter
	s.stats.IterationCaps++
	return IterationLimit
}

// validate checks the solved point against the arena rows in original
// coordinates, catching accumulated tableau drift: every row's activity
// must be consistent with its slack value and sense within tol.
func (s *Solver) validate(x []float64) bool {
	const tol = 1e-6
	for r := 0; r < s.m; r++ {
		row := &s.p.Rows[s.arenaIdx[r]]
		act := 0.0
		for j, c := range row.Coefs {
			if c != 0 {
				act += c * x[j]
			}
		}
		if math.Abs(act+s.colVal(s.n+r)-s.rhs[r]) > tol*(1+math.Abs(s.rhs[r])) {
			return false
		}
	}
	return true
}

// extract builds the Solution from the current optimal tableau.
func (s *Solver) extract() *Solution {
	p := s.p
	x := make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		x[j] = s.colVal(j)
	}
	z := p.ObjConst
	for j := 0; j < s.n; j++ {
		if c := p.Obj[j]; c != 0 {
			z += c * x[j]
		}
	}
	if p.Negated {
		z = -z
	}
	sol := &Solution{Status: Optimal, X: x, Objective: z}
	if s.WantDuals {
		// y_i = −z[slack_i]; non-binding rows have a basic slack with
		// zero reduced cost. Prices are reported in the caller's
		// direction and indexed by arena row (dropped rows price 0).
		dir := 1.0
		if p.Negated {
			dir = -1
		}
		shadow := make([]float64, len(p.Rows))
		for r := 0; r < s.m; r++ {
			shadow[s.arenaIdx[r]] = -dir * s.z[s.n+r]
		}
		sol.ShadowPrices = shadow
	}
	return sol
}

// Solve re-optimizes after any combination of ingested rows, bound
// changes, and RHS changes, warm-starting from the inherited basis. On
// numerical staleness (iteration cap or a failed validation) it rebuilds
// cold once and retries.
func (s *Solver) Solve() (*Solution, error) {
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
		sol := s.extract()
		sol.Iterations = s.stats.Pivots - p0
		if s.validate(sol.X) {
			return sol, nil
		}
		st = IterationLimit // force the cold retry below
	}
	if st == IterationLimit && warm {
		s.stats.WarmSolves--
		s.stats.ColdSolves++
		s.stats.StaleRebuilds++
		s.rebuild()
		st = s.dual()
		if st == Optimal {
			sol := s.extract()
			sol.Iterations = s.stats.Pivots - p0
			if s.validate(sol.X) {
				return sol, nil
			}
			st = IterationLimit
		}
	}
	switch st {
	case Infeasible:
		return &Solution{Status: Infeasible, Iterations: s.stats.Pivots - p0}, nil
	default:
		s.built = false // poison: next solve rebuilds
		return &Solution{Status: IterationLimit, Iterations: s.stats.Pivots - p0}, nil
	}
}
