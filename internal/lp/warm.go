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
	// ridx[r] lists live row r's nonzero columns in ascending order, the
	// order validate sums them in; it is built with the row's tableau row
	// (by rebuild, or by ingestRow on a built solver). The lists are
	// capacity-capped views into nz, which rebuild refills and ingestRow
	// appends to: appending, or reallocating nz, never writes into a
	// list.
	ridx [][]int32
	nz   []int32

	// Column state over N = n+m columns: structurals 0..n-1, then the
	// slack of live row r at column n+r. A column is either basic, in
	// tableau row pos[j], or nonbasic, in tableau slot slot[j]; the other
	// map holds -1.
	lo, hi  []float64
	atUpper []bool
	pos     []int
	slot    []int

	// Tableau over the nonbasic columns only. Exactly n of the N columns
	// are nonbasic at any time, so each row has n slots: col[k] is the
	// column in slot k, t[i][k] is entry (i, col[k]) of B⁻¹[A I] and z[k]
	// its reduced cost (internal minimization sense). A basic column's
	// tableau column is the unit vector e_pos and its reduced cost is 0,
	// so neither is stored. basis[i] is the column basic in row i and
	// xB[i] its current value.
	t     [][]float64
	z     []float64
	col   []int
	basis []int
	xB    []float64
	// loB/hiB[i] are the bounds of basis[i], so leaving-row pricing
	// reads three row-aligned arrays; nonbasic lists the columns with a
	// slot in ascending id, the ratio test's visit order.
	loB, hiB []float64
	nonbasic []int

	built bool // a valid basis/tableau exists
	stats SolverStats

	// WantDuals requests ShadowPrices on returned Solutions (off by
	// default: branch-and-bound has no use for them).
	WantDuals bool

	// blandAlways prices by the dual Bland rule from the first pivot
	// (tests only: it exercises the anti-cycling branch on every solve).
	blandAlways bool
	// pivoted, when set, runs after every pivot (tests only: a full-width
	// reference solver is checked against the tableau bit for bit).
	pivoted func()
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
	s.pos = make([]int, s.n)
	s.slot = make([]int, s.n)
	for j := range s.pos {
		s.pos[j], s.slot[j] = -1, -1
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
	return s.z[s.slot[j]]
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
		k := s.slot[j]
		old := s.colVal(j)
		s.lo[j], s.hi[j] = lo, hi
		// Re-rest the variable on the side its reduced cost requires.
		// While j was fixed (lo == hi) pivots may have driven z[k] to
		// either sign; after the fix is relaxed the old resting side can
		// be dual infeasible, which would make the next dual() run stop
		// at a suboptimal point.
		if lo != hi {
			if s.z[k] > Tolerance {
				s.atUpper[j] = false
			} else if s.z[k] < -Tolerance {
				s.atUpper[j] = true
			}
		}
		if d := s.colVal(j) - old; d != 0 {
			for i := 0; i < s.m; i++ {
				s.xB[i] -= float64(s.t[i][k] * d)
			}
		}
		return
	}
	s.lo[j], s.hi[j] = lo, hi
	if s.built {
		r := s.pos[j]
		s.loB[r], s.hiB[r] = lo, hi
	}
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
	if p := s.pos[sc]; p >= 0 {
		s.xB[p] += d // a basic slack's column is e_p
		return
	}
	k := s.slot[sc]
	for i := 0; i < s.m; i++ {
		s.xB[i] += float64(s.t[i][k] * d)
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
	s.ridx = append(s.ridx, nil)
	slo, shi := slackBounds(row.Sense)
	s.lo = append(s.lo, slo)
	s.hi = append(s.hi, shi)
	s.atUpper = append(s.atUpper, false)
	s.pos = append(s.pos, -1)
	s.slot = append(s.slot, -1)
	if !s.built {
		s.m++
		return
	}
	// New tableau row: the original coefficients of the nonbasic columns
	// (a slack's is 0), eliminated against the current basis in basis-row
	// order. One pass suffices because basic columns are unit columns, so
	// the multiplier of row i is the row's own coefficient on basis[i].
	// A spare row buffer past the end of t (DropRow leaves one there) is
	// reused.
	var w []float64
	if len(s.t) < cap(s.t) {
		w = s.t[:len(s.t)+1][len(s.t)]
	}
	if cap(w) < s.n {
		w = make([]float64, s.n)
	}
	w = w[:s.n]
	for k, j := range s.col {
		w[k] = 0
		if j < s.n {
			w[k] = row.Coefs[j]
		}
	}
	for i, b := range s.basis {
		if b >= s.n {
			continue
		}
		if f := row.Coefs[b]; f != 0 {
			subScaled(w, s.t[i], f)
		}
	}
	// Slack value in original coordinates: s = b − a·x.
	s.ridx[r] = s.indexRow(row.Coefs)
	v := row.RHS
	for _, j := range s.ridx[r] {
		v -= float64(row.Coefs[j] * s.colVal(int(j)))
	}
	s.t = append(s.t, w)
	s.basis = append(s.basis, sc)
	s.xB = append(s.xB, v)
	s.loB = append(s.loB, slo)
	s.hiB = append(s.hiB, shi)
	s.pos[sc] = r
	s.m++
}

// indexRow appends the nonzero columns of a row to nz and returns them
// as a capacity-capped view.
func (s *Solver) indexRow(coefs []float64) []int32 {
	b := len(s.nz)
	for j, c := range coefs {
		if c != 0 {
			s.nz = append(s.nz, int32(j))
		}
	}
	return s.nz[b:len(s.nz):len(s.nz)]
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
	if s.built {
		rb := s.pos[sc]
		if rb < 0 {
			return false
		}
		// Deleting an equation whose slack is basic: the slack's column is
		// e_rb, so no other tableau row references it and removing tableau
		// row rb yields exactly the reduced basis inverse. The slots are
		// untouched. The dropped row's buffer moves past the end for
		// ingestRow to reuse, so no two rows ever share one.
		dropped := s.t[rb]
		copy(s.t[rb:], s.t[rb+1:])
		s.t[len(s.t)-1] = dropped
		s.t = s.t[:len(s.t)-1]
		s.xB = append(s.xB[:rb], s.xB[rb+1:]...)
		s.basis = append(s.basis[:rb], s.basis[rb+1:]...)
		s.loB = append(s.loB[:rb], s.loB[rb+1:]...)
		s.hiB = append(s.hiB[:rb], s.hiB[rb+1:]...)
	}
	// Without a live tableau the slack-column state is whatever rebuild
	// will overwrite anyway, so the bookkeeping below is the whole job.
	// This is how a fresh solver sheds rows that died on a previous solver
	// before it ever pays for them in the basis.
	s.lo = append(s.lo[:sc], s.lo[sc+1:]...)
	s.hi = append(s.hi[:sc], s.hi[sc+1:]...)
	s.atUpper = append(s.atUpper[:sc], s.atUpper[sc+1:]...)
	// Row bookkeeping: live rows after r shift down by one.
	s.rhs = append(s.rhs[:r], s.rhs[r+1:]...)
	s.sense = append(s.sense[:r], s.sense[r+1:]...)
	s.ridx = append(s.ridx[:r], s.ridx[r+1:]...)
	s.arenaIdx = append(s.arenaIdx[:r], s.arenaIdx[r+1:]...)
	s.rowOf[arenaRow] = -1
	for _, a := range s.arenaIdx[r:] {
		s.rowOf[a]--
	}
	s.m--
	s.pos = s.pos[:s.n+s.m]
	s.slot = s.slot[:s.n+s.m]
	s.stats.RowsDropped++
	if !s.built {
		return true
	}
	// Column ids above sc shift down by one.
	for j := range s.pos {
		s.pos[j], s.slot[j] = -1, -1
	}
	for i, b := range s.basis {
		if b > sc {
			b--
			s.basis[i] = b
		}
		s.pos[b] = i
	}
	for k, j := range s.col {
		if j > sc {
			j--
			s.col[k] = j
		}
		s.slot[j] = k
	}
	for x, j := range s.nonbasic {
		if j > sc {
			s.nonbasic[x] = j - 1
		}
	}
	return true
}

// rebuild constructs the all-slack tableau from the arena rows and the
// solver's current bound/RHS state, resting each structural variable on
// the bound matching its cost sign so the start is dual feasible. The
// structurals are nonbasic, so slot k holds column k.
func (s *Solver) rebuild() {
	if cap(s.t) < s.m {
		s.t = make([][]float64, s.m)
	}
	s.t = s.t[:s.m]
	for i := 0; i < s.m; i++ {
		if cap(s.t[i]) < s.n {
			s.t[i] = make([]float64, s.n)
		}
		s.t[i] = s.t[i][:s.n]
		copy(s.t[i], s.p.Rows[s.arenaIdx[i]].Coefs)
	}
	s.basis = s.basis[:0]
	s.xB = s.xB[:0]
	s.pos = s.pos[:0]
	s.slot = s.slot[:0]
	s.col = s.col[:0]
	s.nonbasic = slices.Grow(s.nonbasic[:0], s.n)
	s.z = s.z[:0]
	s.loB, s.hiB = slices.Grow(s.loB[:0], s.m), slices.Grow(s.hiB[:0], s.m)
	for j := 0; j < s.n; j++ {
		c := s.p.Obj[j]
		s.pos = append(s.pos, -1)
		s.slot = append(s.slot, j)
		s.col = append(s.col, j)
		s.nonbasic = append(s.nonbasic, j)
		s.z = append(s.z, c)
		s.atUpper[j] = c < 0
	}
	for r := 0; r < s.m; r++ {
		s.pos = append(s.pos, r)
		s.slot = append(s.slot, -1)
		s.atUpper[s.n+r] = false
		s.basis = append(s.basis, s.n+r)
		s.loB = append(s.loB, s.lo[s.n+r])
		s.hiB = append(s.hiB, s.hi[s.n+r])
	}
	s.nz = s.nz[:0]
	for i := 0; i < s.m; i++ {
		v := s.rhs[i]
		coefs := s.p.Rows[s.arenaIdx[i]].Coefs
		s.ridx[i] = s.indexRow(coefs)
		for _, j := range s.ridx[i] {
			v -= float64(coefs[j] * s.colVal(int(j)))
		}
		s.xB = append(s.xB, v)
	}
	s.built = true
}

// pivot performs a dual-simplex pivot: the basic variable l of row r
// leaves to bound bnd, column e enters, and l takes e's slot k. Every
// entry is computed by the arithmetic of the full-width Gauss–Jordan
// step: l's column before the pivot is e_r, so its new entries are 1·inv
// in the pivot row and 0 − f·inv in a row whose entry in e's column is f,
// and its reduced cost is 0 − z_e·inv. Rows with f == 0 are skipped; a
// slot whose pivot-row entry is zero still takes row[j] − f·(±0), which
// can change only the sign of an exact zero (DESIGN.md §10). The row
// pass is elimRows: one SSE2 call per pivot on amd64, elimRowsGo
// elsewhere, with the same bits either way.
func (s *Solver) pivot(r, e int, bnd float64) {
	k := s.slot[e]
	pr := s.t[r]
	te := pr[k]
	dv := (s.xB[r] - bnd) / te
	ve := s.colVal(e)
	l := s.basis[r]
	s.atUpper[l] = bnd == s.hi[l]
	s.pos[l], s.slot[l] = -1, k
	s.pos[e], s.slot[e] = r, -1
	s.basis[r] = e
	s.loB[r], s.hiB[r] = s.lo[e], s.hi[e]
	s.col[k] = l
	swapNonbasic(s.nonbasic, e, l)
	s.xB[r] = ve + dv
	inv := 1 / te
	for j := range pr {
		pr[j] *= inv
	}
	pr[k] = inv
	elimRows(s.t, s.xB, r, k, dv)
	if f := s.z[k]; f != 0 {
		s.z[k] = 0
		subScaled(s.z, pr, f)
	}
}

// elimRowsGo eliminates slot k from every tableau row but the pivot row
// pr = t[r], which the caller has already scaled: a row whose entry f in
// slot k is nonzero (NaN included) takes xB[i] −= f·dv, row[k] = 0 and
// then row[j] −= f·pr[j] over every slot. Every row holds len(pr)
// entries, and k < len(pr). It is the loop elimRows runs, in Go: the
// routine on architectures without an assembly one, and the oracle the
// assembly routine is tested against bit for bit (DESIGN.md §10).
func elimRowsGo(t [][]float64, xB []float64, r, k int, dv float64) {
	pr := t[r]
	for i, row := range t {
		if i == r {
			continue
		}
		if f := row[k]; f != 0 {
			xB[i] -= float64(f * dv)
			row[k] = 0
			subScaled(row, pr, f)
		}
	}
}

// subScaled sets y[j] −= f·x[j] for every j < len(y); len(x) ≥ len(y).
// The loop is unrolled by four and free of bounds checks. The explicit
// float64 conversion rounds each product, so no compiler may fuse the
// update into an FMA: every architecture computes y − round(f·x), the
// arithmetic of elimRows' assembly.
func subScaled(y, x []float64, f float64) {
	for len(y) >= 4 && len(x) >= 4 {
		y[0] -= float64(f * x[0])
		y[1] -= float64(f * x[1])
		y[2] -= float64(f * x[2])
		y[3] -= float64(f * x[3])
		y, x = y[4:], x[4:]
	}
	x = x[:len(y)]
	for j := range y {
		y[j] -= float64(f * x[j])
	}
}

// swapNonbasic replaces column out of the ascending list nb by column in,
// keeping the list ascending.
func swapNonbasic(nb []int, out, in int) {
	i, _ := slices.BinarySearch(nb, out)
	if in > out {
		for ; i+1 < len(nb) && nb[i+1] < in; i++ {
			nb[i] = nb[i+1]
		}
	} else {
		for ; i > 0 && nb[i-1] > in; i-- {
			nb[i] = nb[i-1]
		}
	}
	nb[i] = in
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
		xB := s.xB[:s.m]
		loB, hiB := s.loB[:len(xB)], s.hiB[:len(xB)]
		if iter >= blandAfter || stall > s.m {
			// Dual Bland: smallest basic column index among the violated.
			first := N
			for i, x := range xB {
				b := s.basis[i]
				if b >= first {
					continue
				}
				if loB[i]-x > Tolerance {
					first, r, below = b, i, true
				} else if x-hiB[i] > Tolerance {
					first, r, below = b, i, false
				}
			}
		} else {
			worst := Tolerance
			for i, x := range xB {
				if v := loB[i] - x; v > worst {
					worst, r, below = v, i, true
				} else if v := x - hiB[i]; v > worst {
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
		// feasible side; ties break on the smallest column index. The
		// nonbasic columns are visited in ascending column id, not slot
		// order: the tie-break below depends on the order of the visit.
		tr := s.t[r]
		e := -1
		best := math.Inf(1)
		for _, j := range s.nonbasic {
			if s.lo[j] == s.hi[j] {
				continue
			}
			k := s.slot[j]
			a := tr[k]
			var ratio float64
			if below {
				if s.atUpper[j] {
					if a <= Tolerance {
						continue
					}
					ratio = -s.z[k] / a
				} else {
					if a >= -Tolerance {
						continue
					}
					ratio = s.z[k] / -a
				}
			} else {
				if s.atUpper[j] {
					if a >= -Tolerance {
						continue
					}
					ratio = s.z[k] / a
				} else {
					if a <= Tolerance {
						continue
					}
					ratio = s.z[k] / a
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
		bnd := loB[r]
		if !below {
			bnd = hiB[r]
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

// validate checks the solved point against the arena rows in original
// coordinates, catching accumulated tableau drift: every row's activity
// must be consistent with its slack value and sense within tol.
func (s *Solver) validate(x []float64) bool {
	const tol = 1e-6
	for r := 0; r < s.m; r++ {
		act := 0.0
		coefs := s.p.Rows[s.arenaIdx[r]].Coefs
		for _, j := range s.ridx[r] {
			act += float64(coefs[j] * x[j])
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
			z += float64(c * x[j])
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
			if k := s.slot[s.n+r]; k >= 0 {
				shadow[s.arenaIdx[r]] = -dir * s.z[k]
			}
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
