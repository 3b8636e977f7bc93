// Sparse revised simplex: the scale-up of the warm-start kernel. The
// dense Solver (warm.go) carries an explicit m×n tableau over the
// nonbasic columns and pays O(m × n) per pivot to keep it current, rows
// that fill in as B⁻¹ does — fine at the paper's M=10
// relaxations (~35 vars, ~65 rows), a wall at the M=40+ instances the
// ROADMAP targets. A SparseSolver keeps the same bounded-variable
// dual-simplex semantics but represents the basis as a sparse LU
// factorization plus a product-form eta file (factor.go):
//
//   - structural columns are cached sparse (CSC) and rows sparse (CSR);
//   - the leaving row's tableau row is computed on demand by one BTRAN
//     and a sparse scatter (α = ρᵀ[A I]), the entering column by one
//     FTRAN — O(nnz) each instead of touching the whole tableau;
//   - each pivot appends one eta; the factorization is redone every
//     refactorEvery pivots (and whenever the row set changes), which
//     bounds both eta fill and numerical drift;
//   - Devex-lite row pricing weights each basic infeasibility by an
//     approximate steepest-edge norm; after blandAfter pivots it falls
//     back to the first violated row position. Unlike the dense
//     kernel's dual Bland rule (smallest basic column index), that
//     fallback carries no anti-cycling guarantee;
//   - basic values are recomputed from the resting bounds at every
//     Solve (one FTRAN) instead of being translated incrementally, so
//     bound and RHS mutations are O(1) bookkeeping.
//
// Mutator semantics (SetVarBounds re-resting, SetRowRHS, sync ingestion
// of appended arena rows, DropRow compaction, the validate + cold-retry
// + poison staleness ladder, SolverStats.StaleRebuilds contract) are
// identical to the dense Solver — property-tested against it and the
// legacy two-phase solver at 1e-9 — so internal/milp can drive either
// core through the Kernel interface, keeping the dense path as a
// correctness oracle behind a flag.
package lp

import (
	"fmt"
	"math"

	"hiopt/internal/linexpr"
)

// Kernel is the mutable warm-start solver surface internal/milp drives:
// both the dense *Solver and the sparse *SparseSolver implement it, so
// branch-and-bound can run on either core.
type Kernel interface {
	Solve() (*Solution, error)
	SetVarBounds(j int, lo, hi float64)
	VarBounds(j int) (lo, hi float64)
	SetRowRHS(arenaRow int, rhs float64)
	DropRow(arenaRow int) bool
	ReducedCost(j int) float64
	Stats() SolverStats
	// Bytes is the heap the kernel holds, its arena excluded.
	Bytes() int64
}

var (
	_ Kernel = (*Solver)(nil)
	_ Kernel = (*SparseSolver)(nil)
)

// refactorEvery bounds the eta file: after this many pivots on one
// factorization the basis is refactorized from its columns.
const refactorEvery = 128

// SparseSolver is a persistent bounded-variable dual-simplex solver over
// a sparse LU basis representation, attached to one linexpr.Compiled
// arena problem exactly like the dense Solver.
//
// A SparseSolver is not safe for concurrent use.
type SparseSolver struct {
	p *linexpr.Compiled
	n int // structural columns
	m int // live rows

	// Row bookkeeping, identical to the dense Solver's.
	rowOf    []int
	arenaIdx []int
	rhs      []float64
	sense    []linexpr.Sense

	// Sparse row cache (CSR): per live row, the nonzero structural
	// coefficients. Rebuilt entries only on ingest/drop; arena rows are
	// never mutated after AddRow.
	ridx [][]int32
	rval [][]float64

	// Sparse column cache (CSC) over structural columns, rebuilt lazily
	// whenever the row set changes.
	cols      [][]colEntry
	colsDirty bool

	// Column state over N = n+m columns: structurals 0..n-1, then the
	// slack of live row r at column n+r.
	lo, hi  []float64
	atUpper []bool
	z       []float64 // reduced costs (internal minimization sense)
	pos     []int     // column -> basis position where basic, or -1
	// nonbasic lists the columns with pos < 0 in ascending order: the
	// ratio test's visit order.
	nonbasic []int

	// Basis state by position k: basis[k] is the basic column, xB[k] its
	// value, gamma[k] its Devex reference weight.
	basis []int
	xB    []float64
	gamma []float64

	lu         luFactor
	etas       etaFile
	needFactor bool

	built bool
	stats SolverStats

	// Scratch buffers sized N / m, reused across pivots.
	alpha   []float64 // row r of B⁻¹[A I]
	rowBuf  []float64 // physical-row workspace for FTRAN/BTRAN
	posBuf  []float64 // basis-position workspace
	posBuf2 []float64
	bcols   [][]colEntry // factorizeBasis' basis columns
	units   []colEntry   // and its slack unit columns

	// WantDuals requests ShadowPrices on returned Solutions.
	WantDuals bool
}

// NewSparseSolver attaches a sparse revised-simplex solver to p. Every
// structural variable must have finite bounds; ErrUnboundedVar is
// returned otherwise (callers fall back to the two-phase Solve).
func NewSparseSolver(p *linexpr.Compiled) (*SparseSolver, error) {
	for j := 0; j < p.NumVars; j++ {
		if math.IsInf(p.Lo[j], 0) || math.IsInf(p.Hi[j], 0) {
			return nil, fmt.Errorf("%w: %q in [%g, %g]", ErrUnboundedVar, p.Names[j], p.Lo[j], p.Hi[j])
		}
	}
	s := &SparseSolver{p: p, n: p.NumVars}
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
func (s *SparseSolver) Stats() SolverStats { return s.stats }

// VarBounds returns the solver's current bounds of structural variable j.
func (s *SparseSolver) VarBounds(j int) (lo, hi float64) { return s.lo[j], s.hi[j] }

// ReducedCost returns the reduced cost of structural variable j in the
// internal minimization sense, or 0 when j is basic.
func (s *SparseSolver) ReducedCost(j int) float64 {
	if !s.built || s.pos[j] >= 0 {
		return 0
	}
	return s.z[j]
}

// colVal is the current value of column j.
func (s *SparseSolver) colVal(j int) float64 {
	if r := s.pos[j]; r >= 0 {
		return s.xB[r]
	}
	if s.atUpper[j] {
		return s.hi[j]
	}
	return s.lo[j]
}

// SetVarBounds installs new bounds for structural variable j, re-resting
// a nonbasic variable on the side its reduced cost requires (see the
// dense Solver: while j was fixed, pivots may have driven z[j] to either
// sign). Basic values are recomputed at the next Solve, so no tableau
// translation is needed.
func (s *SparseSolver) SetVarBounds(j int, lo, hi float64) {
	if s.built && s.pos[j] < 0 && lo != hi {
		if s.z[j] > Tolerance {
			s.atUpper[j] = false
		} else if s.z[j] < -Tolerance {
			s.atUpper[j] = true
		}
	}
	s.lo[j], s.hi[j] = lo, hi
}

// SetRowRHS installs a new right-hand side for the arena row arenaRow
// (which must be live). Dual feasibility is unaffected; basic values are
// recomputed at the next Solve.
func (s *SparseSolver) SetRowRHS(arenaRow int, rhs float64) {
	s.sync()
	r := s.rowOf[arenaRow]
	if r < 0 {
		panic(fmt.Sprintf("lp: SetRowRHS on dropped row %d", arenaRow))
	}
	s.rhs[r] = rhs
}

// sync ingests arena rows appended since the last solve. Each new row
// enters with its own slack basic; the factorization is redone at the
// next Solve to absorb the grown basis.
func (s *SparseSolver) sync() {
	for len(s.rowOf) < len(s.p.Rows) {
		s.ingestRow(len(s.rowOf))
	}
}

func (s *SparseSolver) ingestRow(arenaRow int) {
	row := &s.p.Rows[arenaRow]
	r := s.m
	sc := s.n + r
	s.rowOf = append(s.rowOf, r)
	s.arenaIdx = append(s.arenaIdx, arenaRow)
	s.rhs = append(s.rhs, row.RHS)
	s.sense = append(s.sense, row.Sense)
	var ri []int32
	var rv []float64
	for j, c := range row.Coefs {
		if c != 0 {
			ri = append(ri, int32(j))
			rv = append(rv, c)
		}
	}
	s.ridx = append(s.ridx, ri)
	s.rval = append(s.rval, rv)
	slo, shi := slackBounds(row.Sense)
	s.lo = append(s.lo, slo)
	s.hi = append(s.hi, shi)
	s.atUpper = append(s.atUpper, false)
	s.z = append(s.z, 0)
	s.pos = append(s.pos, -1)
	if s.built {
		s.basis = append(s.basis, sc)
		s.xB = append(s.xB, 0)
		s.gamma = append(s.gamma, 1)
		s.pos[sc] = r
	}
	s.m++
	s.colsDirty = true
	s.needFactor = true
}

// DropRow removes a retired arena row, provided its slack is currently
// basic (or no basis exists yet). Semantics match the dense Solver's.
func (s *SparseSolver) DropRow(arenaRow int) bool {
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
		s.basis = append(s.basis[:rb], s.basis[rb+1:]...)
		s.xB = append(s.xB[:rb], s.xB[rb+1:]...)
		s.gamma = append(s.gamma[:rb], s.gamma[rb+1:]...)
	}
	// Column arrays: delete slack column sc.
	s.z = append(s.z[:sc], s.z[sc+1:]...)
	s.lo = append(s.lo[:sc], s.lo[sc+1:]...)
	s.hi = append(s.hi[:sc], s.hi[sc+1:]...)
	s.atUpper = append(s.atUpper[:sc], s.atUpper[sc+1:]...)
	// Row arrays: delete physical row r.
	s.rhs = append(s.rhs[:r], s.rhs[r+1:]...)
	s.sense = append(s.sense[:r], s.sense[r+1:]...)
	s.ridx = append(s.ridx[:r], s.ridx[r+1:]...)
	s.rval = append(s.rval[:r], s.rval[r+1:]...)
	s.arenaIdx = append(s.arenaIdx[:r], s.arenaIdx[r+1:]...)
	s.rowOf[arenaRow] = -1
	for _, a := range s.arenaIdx[r:] {
		s.rowOf[a]--
	}
	s.m--
	// Column ids above sc shift down by one; rebuild pos from basis.
	s.pos = s.pos[:s.n+s.m]
	for j := range s.pos {
		s.pos[j] = -1
	}
	if s.built {
		for i, b := range s.basis {
			if b > sc {
				s.basis[i] = b - 1
			}
			s.pos[s.basis[i]] = i
		}
		for x, j := range s.nonbasic {
			if j > sc {
				s.nonbasic[x] = j - 1
			}
		}
	}
	s.colsDirty = true
	s.needFactor = true
	s.stats.RowsDropped++
	return true
}

// rebuild resets to the all-slack basis, resting each structural
// variable on the bound matching its cost sign (dual feasible start).
func (s *SparseSolver) rebuild() {
	s.basis = s.basis[:0]
	s.xB = s.xB[:0]
	s.gamma = s.gamma[:0]
	s.pos = s.pos[:0]
	N := s.n + s.m
	for j := 0; j < N; j++ {
		s.pos = append(s.pos, -1)
	}
	s.z = s.z[:0]
	s.nonbasic = s.nonbasic[:0]
	for j := 0; j < s.n; j++ {
		c := s.p.Obj[j]
		s.z = append(s.z, c)
		s.atUpper[j] = c < 0
		s.nonbasic = append(s.nonbasic, j)
	}
	for r := 0; r < s.m; r++ {
		s.z = append(s.z, 0)
		s.atUpper[s.n+r] = false
		s.basis = append(s.basis, s.n+r)
		s.pos[s.n+r] = r
		s.xB = append(s.xB, 0)
		s.gamma = append(s.gamma, 1)
	}
	s.etas.reset()
	s.needFactor = true
	s.built = true
}

// ensureCols rebuilds the CSC structural-column cache from the CSR rows.
func (s *SparseSolver) ensureCols() {
	if !s.colsDirty && s.cols != nil {
		return
	}
	if cap(s.cols) < s.n {
		s.cols = make([][]colEntry, s.n)
	}
	s.cols = s.cols[:s.n]
	for j := range s.cols {
		s.cols[j] = s.cols[j][:0]
	}
	for i := 0; i < s.m; i++ {
		ri, rv := s.ridx[i], s.rval[i]
		for k, j := range ri {
			s.cols[j] = append(s.cols[j], colEntry{int32(i), rv[k]})
		}
	}
	s.colsDirty = false
}

// factorizeBasis refactorizes the current basis from its sparse columns,
// dropping the eta file.
func (s *SparseSolver) factorizeBasis() error {
	s.ensureCols()
	if cap(s.bcols) < s.m {
		s.bcols = make([][]colEntry, s.m)
		s.units = make([]colEntry, s.m)
	}
	bcols, units := s.bcols[:s.m], s.units[:s.m]
	for k, b := range s.basis {
		if b < s.n {
			bcols[k] = s.cols[b]
		} else {
			units[k] = colEntry{int32(b - s.n), 1}
			bcols[k] = units[k : k+1]
		}
	}
	if err := s.lu.factorize(s.m, bcols); err != nil {
		return err
	}
	s.etas.reset()
	s.needFactor = false
	s.stats.Refactorizations++
	return nil
}

func (s *SparseSolver) grow() {
	N := s.n + s.m
	if cap(s.alpha) < N {
		s.alpha = make([]float64, N)
	}
	s.alpha = s.alpha[:N]
	if cap(s.rowBuf) < s.m {
		s.rowBuf = make([]float64, s.m)
		s.posBuf = make([]float64, s.m)
		s.posBuf2 = make([]float64, s.m)
	}
	s.rowBuf = s.rowBuf[:s.m]
	s.posBuf = s.posBuf[:s.m]
	s.posBuf2 = s.posBuf2[:s.m]
}

// ftran solves B·w = a for a dense right-hand side indexed by physical
// row (consumed), returning w indexed by basis position in out.
func (s *SparseSolver) ftran(a, out []float64) {
	s.lu.lusolve(a)
	for t := range s.lu.prow {
		out[s.lu.bpos[t]] = a[s.lu.prow[t]]
	}
	s.etas.ftran(out)
}

// ftranCol computes w = B⁻¹·A_col for column id col (structural or
// slack), returning w by basis position in out.
func (s *SparseSolver) ftranCol(col int, out []float64) {
	a := s.rowBuf
	for i := range a {
		a[i] = 0
	}
	if col < s.n {
		for _, e := range s.cols[col] {
			a[e.row] = e.val
		}
	} else {
		a[col-s.n] = 1
	}
	s.ftran(a, out)
}

// btranPos solves Bᵀ·ρ = e_r for basis position r, returning ρ indexed
// by physical row in out.
func (s *SparseSolver) btranPos(r int, out []float64) {
	c := s.posBuf2
	for i := range c {
		c[i] = 0
	}
	c[r] = 1
	s.etas.btran(c)
	for i := range out {
		out[i] = 0
	}
	for t := range s.lu.prow {
		out[s.lu.prow[t]] = c[s.lu.bpos[t]]
	}
	s.lu.lusolveT(out)
}

// computeXB recomputes every basic value from the resting bounds and the
// authoritative RHS vector: b_eff = rhs − Σ_{nonbasic j} A_j·rest(j),
// then one FTRAN. This replaces the dense kernel's incremental tableau
// translations and is immune to their accumulated drift.
func (s *SparseSolver) computeXB() {
	s.ensureCols()
	s.grow()
	b := s.rowBuf
	copy(b, s.rhs)
	for j := 0; j < s.n; j++ {
		if s.pos[j] >= 0 {
			continue
		}
		v := s.colVal(j)
		if v == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			b[e.row] -= float64(e.val * v)
		}
	}
	for r := 0; r < s.m; r++ {
		sc := s.n + r
		if s.pos[sc] < 0 {
			if v := s.colVal(sc); v != 0 {
				b[r] -= v
			}
		}
	}
	s.ftran(b, s.xB)
}

// computeZ recomputes every reduced cost from the current basis (one
// BTRAN plus a sparse sweep), zeroing accumulated drift, and re-rests
// nonbasic columns whose recomputed sign contradicts their resting side
// (only onto finite bounds). Called at warm refactorizations.
func (s *SparseSolver) computeZ() {
	s.grow()
	c := s.posBuf
	for k, b := range s.basis {
		if b < s.n {
			c[k] = s.p.Obj[b]
		} else {
			c[k] = 0
		}
	}
	// y = B⁻ᵀ·c_B by physical row.
	s.etas.btran(c)
	y := s.rowBuf
	for i := range y {
		y[i] = 0
	}
	for t := range s.lu.prow {
		y[s.lu.prow[t]] = c[s.lu.bpos[t]]
	}
	s.lu.lusolveT(y)
	for j := 0; j < s.n; j++ {
		zj := s.p.Obj[j]
		for _, e := range s.cols[j] {
			zj -= float64(e.val * y[e.row])
		}
		s.z[j] = zj
	}
	for r := 0; r < s.m; r++ {
		s.z[s.n+r] = -y[r]
	}
	for _, b := range s.basis {
		s.z[b] = 0
	}
	N := s.n + s.m
	for j := 0; j < N; j++ {
		if s.pos[j] >= 0 || s.lo[j] == s.hi[j] {
			continue
		}
		if s.z[j] > Tolerance && s.atUpper[j] && !math.IsInf(s.lo[j], -1) {
			s.atUpper[j] = false
		} else if s.z[j] < -Tolerance && !s.atUpper[j] && !math.IsInf(s.hi[j], 1) {
			s.atUpper[j] = true
		}
	}
}

// dual runs the dual simplex to primal feasibility over the factorized
// basis. It returns Optimal, Infeasible, or IterationLimit (which also
// covers numerical breakdowns; the caller's cold retry handles both).
func (s *SparseSolver) dual() Status {
	N := s.n + s.m
	maxIter := 200 * (s.m + N + 10)
	blandAfter := 20 * (s.m + N + 10)
	for iter := 0; iter < maxIter; iter++ {
		// Leaving position: Devex-weighted most-violated basic (past
		// blandAfter: the first violated position, not Bland's rule).
		r, below := -1, false
		bestScore := 0.0
		for i := 0; i < s.m; i++ {
			b := s.basis[i]
			var v float64
			var bel bool
			if d := s.lo[b] - s.xB[i]; d > Tolerance {
				v, bel = d, true
			} else if d := s.xB[i] - s.hi[b]; d > Tolerance {
				v, bel = d, false
			} else {
				continue
			}
			if iter >= blandAfter {
				r, below = i, bel
				break
			}
			if score := v * v / s.gamma[i]; r < 0 || score > bestScore {
				bestScore, r, below = score, i, bel
			}
		}
		if r < 0 {
			for k := range s.basis {
				if math.IsNaN(s.xB[k]) {
					// NaN passes every violation comparison; bail to the
					// cold-retry ladder instead of claiming optimality.
					s.stats.Pivots += iter
					return IterationLimit
				}
			}
			s.stats.Pivots += iter
			return Optimal
		}
		// Tableau row r: α = ρᵀ[A I] with ρ = B⁻ᵀe_r, scattered through
		// the sparse rows that ρ touches.
		rho := s.rowBuf
		s.btranPos(r, rho)
		alpha := s.alpha
		for j := range alpha {
			alpha[j] = 0
		}
		for i := 0; i < s.m; i++ {
			ri := rho[i]
			if ri == 0 {
				continue
			}
			idx, val := s.ridx[i], s.rval[i]
			for k, j := range idx {
				alpha[j] += float64(val[k] * ri)
			}
			alpha[s.n+i] = ri
		}
		// Entering column by the bounded-variable dual ratio test,
		// identical to the dense kernel's, over the nonbasic columns in
		// ascending id.
		e := -1
		best := math.Inf(1)
		for _, j := range s.nonbasic {
			if s.lo[j] == s.hi[j] {
				continue
			}
			a := alpha[j]
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
		// Entering column through the basis; its row-r component is the
		// pivot element and must agree with the BTRAN-computed α.
		w := s.posBuf
		s.ftranCol(e, w)
		te := w[r]
		if abs64(te) < 1e-9 || abs64(te-alpha[e]) > 1e-6*(1+abs64(te)) {
			// Numerical breakdown: the two representations of the pivot
			// disagree. Bail to the cold-retry ladder.
			s.stats.Pivots += iter
			return IterationLimit
		}
		bnd := s.lo[s.basis[r]]
		if !below {
			bnd = s.hi[s.basis[r]]
		}
		// Devex update (Forrest–Goldfarb approximation) before the basis
		// change overwrites gamma[r].
		gr := s.gamma[r]
		te2 := te * te
		maxGamma := 0.0
		for k := 0; k < s.m; k++ {
			if k == r || w[k] == 0 {
				continue
			}
			if cand := (w[k] * w[k] / te2) * gr; cand > s.gamma[k] {
				s.gamma[k] = cand
			}
			if s.gamma[k] > maxGamma {
				maxGamma = s.gamma[k]
			}
		}
		if g := gr / te2; g > 1 {
			s.gamma[r] = g
		} else {
			s.gamma[r] = 1
		}
		if maxGamma > 1e12 {
			// Devex reference framework reset: runaway weights lose all
			// selectivity (v²/γ underflows against fresher rows).
			for k := range s.gamma {
				s.gamma[k] = 1
			}
		}
		// Pivot: basis[r] leaves to bnd, e enters.
		dv := (s.xB[r] - bnd) / te
		ve := s.colVal(e)
		for k := 0; k < s.m; k++ {
			if k == r {
				continue
			}
			if f := w[k]; f != 0 {
				s.xB[k] -= float64(f * dv)
			}
		}
		// Reduced costs: basic columns keep z = 0, so only the nonbasic
		// columns (e among them) and the leaving column l move.
		l := s.basis[r]
		if f := s.z[e]; f != 0 {
			finv := f / te
			for _, j := range s.nonbasic {
				if a := alpha[j]; a != 0 {
					s.z[j] -= float64(finv * a)
				}
			}
			if a := alpha[l]; a != 0 {
				s.z[l] -= float64(finv * a)
			}
		}
		s.z[e] = 0
		s.pos[l] = -1
		s.atUpper[l] = bnd == s.hi[l]
		s.basis[r] = e
		s.pos[e] = r
		s.xB[r] = ve + dv
		swapNonbasic(s.nonbasic, e, l)
		// Append the product-form eta; refactorize when the file is full.
		s.etas.push(r, w)
		if s.etas.len() >= refactorEvery {
			if err := s.factorizeBasis(); err != nil {
				s.stats.Pivots += iter + 1
				return IterationLimit
			}
		}
	}
	s.stats.Pivots += maxIter
	s.stats.IterationCaps++
	return IterationLimit
}

// validate checks the solved point against the arena rows in original
// coordinates, exactly like the dense kernel.
func (s *SparseSolver) validate(x []float64) bool {
	const tol = 1e-6
	for r := 0; r < s.m; r++ {
		idx, val := s.ridx[r], s.rval[r]
		act := 0.0
		for k, j := range idx {
			act += float64(val[k] * x[j])
		}
		if math.Abs(act+s.colVal(s.n+r)-s.rhs[r]) > tol*(1+math.Abs(s.rhs[r])) {
			return false
		}
	}
	return true
}

// extract builds the Solution from the current optimal basis.
func (s *SparseSolver) extract() *Solution {
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

// prepare (re)factorizes when the row set changed or the eta file is
// stale, recomputing reduced costs on a warm refactorization, then
// recomputes the basic values. Returns false on a singular basis.
func (s *SparseSolver) prepare(warm bool) bool {
	s.grow()
	if s.needFactor {
		if err := s.factorizeBasis(); err != nil {
			return false
		}
		if warm {
			s.computeZ()
		}
	}
	s.computeXB()
	return true
}

// Solve re-optimizes after any combination of ingested rows, bound
// changes, and RHS changes, warm-starting from the inherited basis and
// factorization. The staleness ladder (validate, cold retry, poison,
// StaleRebuilds) matches the dense Solver's.
func (s *SparseSolver) Solve() (*Solution, error) {
	s.sync()
	warm := s.built
	if warm {
		s.stats.WarmSolves++
	} else {
		s.stats.ColdSolves++
		s.rebuild()
	}
	p0 := s.stats.Pivots
	st := IterationLimit
	if s.prepare(warm) {
		st = s.dual()
		if st == Infeasible && s.etas.len() > 0 {
			// An infeasibility certificate derived through a stale eta
			// file is not trustworthy: on heavily degenerate faces (pool
			// enumeration slabs) accumulated drift in xB/z can manufacture
			// a violated basic with no admissible entering column.
			// Optimal claims are validated against the arena below;
			// infeasible claims have no primal point to check, so confirm
			// them by refactorizing the same basis — exact xB and reduced
			// costs — and re-running the dual from it.
			if s.factorizeBasis() == nil {
				s.computeZ()
				s.computeXB()
				st = s.dual()
			}
		}
		if st == Optimal {
			sol := s.extract()
			sol.Iterations = s.stats.Pivots - p0
			if s.validate(sol.X) {
				return sol, nil
			}
			st = IterationLimit // force the cold retry below
		}
	}
	if st == IterationLimit && warm {
		s.stats.WarmSolves--
		s.stats.ColdSolves++
		s.stats.StaleRebuilds++
		s.rebuild()
		if s.prepare(false) {
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
	}
	switch st {
	case Infeasible:
		return &Solution{Status: Infeasible, Iterations: s.stats.Pivots - p0}, nil
	default:
		s.built = false // poison: next solve rebuilds
		return &Solution{Status: IterationLimit, Iterations: s.stats.Pivots - p0}, nil
	}
}

// Snapshot captures the current basis and resting sides, the warm-start
// state a parallel dive ships to a worker's solver clone. It returns
// nil slices when no valid basis exists.
func (s *SparseSolver) Snapshot() (basis []int, atUpper []bool) {
	if !s.built {
		return nil, nil
	}
	return append([]int(nil), s.basis...), append([]bool(nil), s.atUpper...)
}

// InstallBasis warm-starts the solver from a snapshot taken on another
// solver attached to an identically-shaped arena (same live rows and
// columns): the basis is factorized and the reduced costs recomputed
// from it. Returns false (leaving the solver cold) when the shape
// mismatches or the basis is singular.
func (s *SparseSolver) InstallBasis(basis []int, atUpper []bool) bool {
	s.sync()
	N := s.n + s.m
	if len(basis) != s.m || len(atUpper) != N {
		return false
	}
	s.rebuild() // sizes pos/z/xB/gamma and clears etas
	for j := range s.pos {
		s.pos[j] = -1
	}
	for k, b := range basis {
		if b < 0 || b >= N {
			s.built = false
			return false
		}
		s.basis[k] = b
		s.pos[b] = k
	}
	s.nonbasic = s.nonbasic[:0]
	for j, p := range s.pos {
		if p < 0 {
			s.nonbasic = append(s.nonbasic, j)
		}
	}
	copy(s.atUpper, atUpper)
	s.needFactor = true
	if err := s.factorizeBasis(); err != nil {
		s.built = false
		return false
	}
	s.computeZ()
	return true
}
