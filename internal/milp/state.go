package milp

import (
	"fmt"
	"math"

	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
	"hiopt/internal/lp/presolve"
)

// State is a persistent warm-started MILP solver attached to one compiled
// arena problem. Where the package-level Solve clones the problem at every
// branch-and-bound node and re-runs a two-phase primal simplex from
// scratch, a State keeps a single lp.Solver whose tableau survives across
// nodes, SolvePool iterations, and caller-appended pruning cuts:
//
//   - branch nodes are bound diffs — each node records only the branching
//     bounds it changes relative to the root, applied and reverted against
//     the shared solver by a longest-common-prefix transition;
//   - every node re-solve is a dual-simplex warm start from the parent
//     basis (bound changes and appended rows preserve dual feasibility);
//   - the pool protocol reuses one objective-bound row across SolvePool
//     calls (RHS-retargeted, never re-added) and retires its no-good cuts
//     at the end of each call so the arena stays feasible for every
//     returned pool member.
//
// Rows the protocol adds to the arena are born with a provably loose RHS
// and only tightened inside the solver, so CheckFeasible against the
// arena is never affected. Whenever the warm path degrades (unboundable
// variables, persistent iteration limits, numerical staleness) the State
// falls back to the cold clone-based path and rebuilds its solver, so
// results are always available and always exact.
//
// A State is not safe for concurrent use.
type State struct {
	p   *linexpr.Compiled
	opt Options
	sv  lp.Kernel

	// legacy marks an arena the warm kernel cannot host (e.g. a variable
	// with an infinite bound); every call delegates to the clone path.
	legacy bool

	// Bound-diff bookkeeping: the diff path currently applied to sv and
	// the bounds to restore when reverting each entry.
	applied []bdiff
	undo    []bdiff

	// Pool protocol state. objRow is the arena index of the shared
	// objective-bound row (-1 until the first pool call); looseObj is its
	// resting RHS. retired holds arena indices of loosened no-good rows
	// not yet dropped from the tableau.
	objRow    int
	looseObj  float64
	retired   []int
	poolCalls int

	// infeasibleBasis marks that the last solve concluded Infeasible: the
	// kernel's terminal basis is then not a trustworthy warm-start point
	// once the caller mutates the problem again (an RHS retarget can chain
	// two infeasible dual re-solves onto a basis that silently drifts and
	// later closes feasible subtrees), so the next solving call rebuilds
	// the solver from the arena first.
	infeasibleBasis bool

	// dead holds the arena index of every no-good row ever added. The
	// arena keeps them (loose, non-binding) forever, but a fresh solver
	// after resetSolver must shed them before building: re-ingesting
	// hundreds of dead cuts would blow the tableau up ~25x and make the
	// stale-recovery path slower than a legacy cold solve.
	dead []int

	// red holds the presolve reductions computed at construction; its
	// solver-level parts (fixings, row drops) are reapplied to every
	// fresh solver resetSolver builds. pre is the applied statistics,
	// surfaced on every Solution.
	red *presolve.Reductions
	pre presolve.Stats

	free []*wnode

	// waste tallies the current call's discarded attempts; dives holds
	// the pivots and caps of the current attempt's merged parallel dives,
	// which ran on their own kernels and are lost if the attempt is.
	waste waste
	dives waste
}

// waste tallies warm work thrown away and redone (see
// Solution.StaleRedos).
type waste struct{ redos, pivots, caps int }

func (w *waste) add(o waste) {
	w.redos += o.redos
	w.pivots += o.pivots
	w.caps += o.caps
}

// stamp adds the tally onto a call's result.
func (w waste) stamp(sol *Solution) {
	sol.StaleRedos += w.redos
	sol.DiscardedPivots += w.pivots
	sol.IterationCaps += w.caps
}

// bdiff is one branching bound change: variable j constrained to [lo, hi].
type bdiff struct {
	j      int
	lo, hi float64
}

// wnode is one open subproblem: the bound-diff path from the root plus the
// relaxation solution computed when the node was created.
type wnode struct {
	diffs []bdiff
	bound float64 // internal minimization sense
	x     []float64
	depth int
	// version is the no-good cut count the node's relaxation was solved
	// under; enumeration re-solves stale nodes (version < current) from
	// the warm basis when they are popped.
	version int
}

// newKernel builds the warm-start LP core the options request: the
// sparse revised-simplex kernel by default, the dense tableau kernel
// (the correctness oracle) under DenseLP.
// sparseKernelThreshold is the rows+vars size at which the automatic
// kernel choice switches from the dense tableau to the sparse revised
// simplex. Below it the dense solver's cache-resident quadratic pivot
// update wins (the paper instance sits at ~100); above it the sparse
// kernel's nonzeros-proportional pivots win by a widening margin (~9x
// per pivot at the M=40 generator instance's ~1050).
const sparseKernelThreshold = 400

func (o Options) newKernel(p *linexpr.Compiled) (lp.Kernel, error) {
	dense := o.DenseLP
	if !o.DenseLP && !o.SparseLP {
		dense = len(p.Rows)+p.NumVars < sparseKernelThreshold
	}
	if dense {
		return lp.NewSolver(p)
	}
	return lp.NewSparseSolver(p)
}

// NewState attaches a persistent MILP state to p. The caller may keep
// appending rows to p between calls (pruning cuts); variable bounds and
// row data already in p must not be mutated by the caller afterwards.
//
// Construction runs the presolve pass (internal/lp/presolve) over the
// arena: reductions are expressed in original coordinates — variable
// fixings as solver bounds, redundant rows as pre-build drops, coefficient
// tightenings in place — so solutions, duals, and reduced costs need no
// postsolve translation.
func NewState(p *linexpr.Compiled, opt Options) *State {
	st := &State{p: p, opt: opt.withDefaults(), objRow: -1}
	st.red = presolve.Analyze(p)
	st.pre = st.red.Apply(p)
	sv, err := st.opt.newKernel(p)
	if err != nil {
		st.legacy = true
		return st
	}
	st.sv = sv
	st.applyReductions()
	return st
}

// applyReductions installs the solver-level presolve reductions on the
// current solver: implied fixings as bounds, never-binding rows as
// pre-build drops. Both are implied by the arena, so the legacy clone
// path (which skips them) solves an equivalent problem.
func (st *State) applyReductions() {
	for j, v := range st.red.Fixed {
		st.sv.SetVarBounds(j, v.Lo, v.Hi)
	}
	for _, r := range st.red.DropRows {
		st.sv.DropRow(r)
	}
}

// Legacy reports whether the state is running on the cold clone-based
// fallback path rather than the warm kernel.
func (st *State) Legacy() bool { return st.legacy }

// SetRowRHS retargets the right-hand side of arena row i on both the
// arena and the live warm kernel, keeping the two views consistent: the
// next SolvePool re-solves from the current basis via dual simplex
// instead of a cold rebuild. This is how Γ-robust callers move a
// protected row's budget (e.g. the availability floor encoding Γ)
// between pool calls without recompiling the relaxation.
//
// The row must be one the state was built with (not an appended cut)
// and must not have been eliminated by presolve — robust protection
// rows satisfy both by construction: they carry the Skip tag, which
// exempts them from every presolve reduction.
func (st *State) SetRowRHS(i int, rhs float64) {
	st.p.Rows[i].RHS = rhs
	if st.legacy || st.sv == nil {
		// The legacy clone path re-reads the arena on every call; the
		// arena update alone retargets it.
		return
	}
	st.sv.SetRowRHS(i, rhs)
}

// resetSolver discards the (possibly poisoned) warm solver and attaches a
// fresh one to the arena. Arena rows carry loose protocol RHS values, so
// the fresh solver starts from a semantically clean problem; dead no-good
// rows are dropped before the first build so the fresh tableau carries
// only the live constraint set.
func (st *State) resetSolver() {
	st.applied = st.applied[:0]
	st.undo = st.undo[:0]
	sv, err := st.opt.newKernel(st.p)
	if err != nil {
		st.legacy = true
		st.sv = nil
		return
	}
	st.sv = sv
	st.applyReductions()
	for _, r := range st.dead {
		sv.DropRow(r)
	}
	st.retired = st.retired[:0]
	st.infeasibleBasis = false
}

// discard throws away the current attempt — the kernel's work since s0
// plus the attempt's merged parallel dives — tallies it, and attaches a
// fresh solver for the redo. The kernel's counters are read before
// resetSolver replaces it.
func (st *State) discard(s0 lp.SolverStats) {
	d := st.sv.Stats()
	st.waste.add(waste{1, d.Pivots - s0.Pivots + st.dives.pivots, d.IterationCaps - s0.IterationCaps + st.dives.caps})
	st.dives = waste{}
	st.resetSolver()
}

// freshenAfterInfeasible rebuilds the solver when the previous solve
// ended Infeasible (see infeasibleBasis); no-op otherwise.
func (st *State) freshenAfterInfeasible() {
	if st.infeasibleBasis && !st.legacy {
		st.resetSolver()
	}
}

// transition moves the solver's variable bounds from the currently applied
// diff path to target: the shared prefix stays, the divergent suffix is
// reverted in reverse order, and target's remainder is applied on top.
func (st *State) transition(target []bdiff) {
	lcp := 0
	for lcp < len(st.applied) && lcp < len(target) && st.applied[lcp] == target[lcp] {
		lcp++
	}
	for i := len(st.applied) - 1; i >= lcp; i-- {
		u := st.undo[i]
		st.sv.SetVarBounds(u.j, u.lo, u.hi)
	}
	st.applied = st.applied[:lcp]
	st.undo = st.undo[:lcp]
	for _, d := range target[lcp:] {
		lo, hi := st.sv.VarBounds(d.j)
		st.undo = append(st.undo, bdiff{d.j, lo, hi})
		st.sv.SetVarBounds(d.j, d.lo, d.hi)
		st.applied = append(st.applied, d)
	}
}

func (st *State) newNode(diffs []bdiff, bound float64, x []float64, depth int) *wnode {
	var nd *wnode
	if n := len(st.free); n > 0 {
		nd, st.free = st.free[n-1], st.free[:n-1]
	} else {
		nd = &wnode{}
	}
	nd.diffs, nd.bound, nd.x, nd.depth = diffs, bound, x, depth
	return nd
}

func (st *State) release(nd *wnode) {
	nd.diffs, nd.x = nil, nil
	st.free = append(st.free, nd)
}

// fixMargin is the safety margin of reduced-cost fixing: a variable is
// only fixed when the implied objective increase clears the pool cutoff
// by at least this much, so no within-tolerance pool member is lost.
const fixMargin = 1e-7

// branchAndBound explores bound-diff nodes depth-first over warm
// dual-simplex re-solves: the node popped next is always the one whose
// basis the solver already holds, so each child solve is a one-bound
// transition from an optimal parent basis. Pruning uses the same
// tolerances as the package-level best-first Solve, so the result is
// identical (an optimal solution, proven). An unrecoverable solver status
// is returned as an error so the caller can fall back to the cold path.
//
// cutoffRow, when finite, is an upper bound (in row space, internal
// minimization, constant excluded) that every wanted integral solution
// satisfies; the root applies reduced-cost fixing against it: a nonbasic
// integer variable whose reduced cost pushes the objective past the
// cutoff cannot move off its bound in any wanted solution, so it is fixed
// for the whole tree. In the pool-enumeration phase, where the objective
// bound pins the feasible slab, this collapses the search to the
// genuinely tied variables.
// dive makes the search stop at the first integral solution found (an
// incumbent, not a proven optimum) — used to bootstrap a cutoff for a
// fixed full run. A dive that exhausts the tree without an incumbent is a
// complete infeasibility proof.
func (st *State) branchAndBound(cutoffRow float64, dive bool) (*Solution, error) {
	opt := st.opt
	p := st.p
	sol := &Solution{Status: Infeasible}

	st.transition(nil)
	root, err := st.sv.Solve()
	if err != nil {
		return nil, err
	}
	sol.LPIterations += root.Iterations
	switch root.Status {
	case lp.Infeasible:
		return sol, nil
	case lp.Optimal:
	default:
		return nil, fmt.Errorf("milp: warm root LP status %v", root.Status)
	}

	var rootDiffs []bdiff
	if !math.IsInf(cutoffRow, 1) {
		bRow := internalMin(p, root.Objective) - p.ObjConst
		for j := 0; j < p.NumVars; j++ {
			if !p.Integer[j] {
				continue
			}
			lo, hi := st.sv.VarBounds(j)
			if lo == hi {
				continue
			}
			z := st.sv.ReducedCost(j)
			if z > lp.Tolerance && bRow+z > cutoffRow+fixMargin {
				rootDiffs = append(rootDiffs, bdiff{j, lo, lo})
			} else if z < -lp.Tolerance && bRow-z > cutoffRow+fixMargin {
				rootDiffs = append(rootDiffs, bdiff{j, hi, hi})
			}
		}
		// Fixing at the resting value moves nothing: the root basis stays
		// optimal and root.X stays valid.
		st.transition(rootDiffs)
	}

	stack := []*wnode{st.newNode(rootDiffs, internalMin(p, root.Objective), root.X, 0)}
	defer func() {
		for _, nd := range stack {
			st.release(nd)
		}
	}()

	best := math.Inf(1)
	var bestX []float64

	for len(stack) > 0 {
		if sol.Nodes >= opt.MaxNodes {
			sol.Status = NodeLimit
			break
		}
		n := len(stack) - 1
		nd := stack[n]
		stack = stack[:n]
		sol.Nodes++
		if nd.bound >= best-1e-9 {
			st.release(nd)
			continue // bound went stale while the node waited on the stack
		}
		frac := mostFractional(p, nd.x, opt.IntTol)
		if frac < 0 {
			if nd.bound < best-1e-9 {
				best = nd.bound
				bestX = roundIntegral(p, nd.x, opt.IntTol)
			}
			st.release(nd)
			if dive {
				break
			}
			continue
		}
		v := nd.x[frac]
		st.transition(nd.diffs)
		lo, hi := st.sv.VarBounds(frac)
		// Solve the floor child first and push it first: depth-first then
		// dives into the ceil child, whose basis the solver holds.
		for pass := 0; pass < 2; pass++ {
			d := bdiff{frac, lo, math.Floor(v)}
			if pass == 1 {
				d = bdiff{frac, math.Ceil(v), hi}
			}
			if d.lo > d.hi {
				continue // empty box: child trivially infeasible
			}
			diffs := append(nd.diffs[:len(nd.diffs):len(nd.diffs)], d)
			st.transition(diffs)
			cs, err := st.sv.Solve()
			if err != nil {
				return nil, err
			}
			sol.LPIterations += cs.Iterations
			switch cs.Status {
			case lp.Optimal:
				if b := internalMin(p, cs.Objective); b < best-1e-9 {
					stack = append(stack, st.newNode(diffs, b, cs.X, nd.depth+1))
				}
			case lp.Infeasible:
				// prune
			default:
				return nil, fmt.Errorf("milp: warm child LP status %v", cs.Status)
			}
		}
		st.release(nd)
	}

	if bestX != nil {
		if sol.Status != NodeLimit {
			sol.Status = Optimal
		}
		sol.X = bestX
		sol.Objective = callerDir(p, best)
	}
	return sol, nil
}

// solveWithDive finds a provably optimal integral solution: a quick
// depth-first dive produces an incumbent whose value seeds reduced-cost
// fixing (keeping every solution within slack of the incumbent, so the
// true optimum and the whole ±slack pool survive), then the fixed full
// run closes the tree.
func (st *State) solveWithDive(slack float64) (*Solution, error) {
	inc, err := st.branchAndBound(math.Inf(1), true)
	if err != nil || inc.Status != Optimal {
		return inc, err
	}
	cutoffRow := internalMin(st.p, inc.Objective) - st.p.ObjConst + slack
	sol, err := st.branchAndBound(cutoffRow, false)
	if err != nil {
		return nil, err
	}
	sol.Nodes += inc.Nodes
	sol.LPIterations += inc.LPIterations
	return sol, nil
}

// Solve finds an optimal integral solution warm-starting from the state's
// basis, falling back to the cold clone-based path on solver failure.
func (st *State) Solve() (*Solution, error) {
	// Two attempts: if a stale-tableau rebuild fired mid-run, earlier
	// unvalidated answers in the run (notably Infeasible prunes) may have
	// come from the drifted basis, so the run is discarded and redone on
	// a fresh solver. A second stale attempt falls through to legacy.
	st.freshenAfterInfeasible()
	st.waste, st.dives = waste{}, waste{}
	for attempt := 0; attempt < 2 && !st.legacy; attempt++ {
		s0 := st.sv.Stats()
		sol, err := st.solveWithDive(0)
		if err != nil {
			st.discard(s0)
			break
		}
		d := st.sv.Stats()
		if d.StaleRebuilds != s0.StaleRebuilds {
			st.discard(s0)
			continue
		}
		sol.WarmSolves += d.WarmSolves - s0.WarmSolves
		sol.ColdSolves += d.ColdSolves - s0.ColdSolves
		sol.Refactorizations += d.Refactorizations - s0.Refactorizations
		sol.IterationCaps += d.IterationCaps - s0.IterationCaps
		st.stampPresolve(sol)
		st.waste.stamp(sol)
		st.infeasibleBasis = sol.Status == Infeasible
		return sol, nil
	}
	sol, err := Solve(st.p, st.opt)
	if err != nil {
		return nil, err
	}
	st.waste.stamp(sol)
	return sol, nil
}

// looseObjBound returns an RHS no point in the root box can exceed for the
// arena's objective row, used as the resting value of the shared
// pool_obj_bound row.
func looseObjBound(p *linexpr.Compiled) float64 {
	v := 1.0
	for j := 0; j < p.NumVars; j++ {
		if c := p.Obj[j]; c != 0 {
			v += math.Max(c*p.Lo[j], c*p.Hi[j])
		}
	}
	return v
}

// addNoGood appends a no-good cut excluding the binary assignment xhat.
// The arena row is born loose (GE with an unreachable RHS) and tightened
// to the live cut only inside the solver.
func (st *State) addNoGood(xhat []float64, iter int) int {
	p := st.p
	coefs := make([]float64, p.NumVars)
	ones := 0
	for j := 0; j < p.NumVars; j++ {
		if !p.Integer[j] {
			continue
		}
		if xhat[j] > 0.5 {
			coefs[j] = -1
			ones++
		} else {
			coefs[j] = 1
		}
	}
	idx := len(p.Rows)
	p.AddRow(fmt.Sprintf("nogood_p%d_%d", st.poolCalls, iter), coefs, linexpr.GE, float64(-ones-1))
	st.sv.SetRowRHS(idx, float64(1-ones))
	st.dead = append(st.dead, idx)
	return idx
}

// retireNoGoods loosens this call's live no-good cuts back to their arena
// resting RHS, re-solves once so their slacks re-enter the basis, and
// drops every retired row whose slack is basic. Rows that cannot be
// dropped yet stay queued for the next call's sweep.
func (st *State) retireNoGoods(added []int) int {
	for _, r := range added {
		row := &st.p.Rows[r]
		st.sv.SetRowRHS(r, row.RHS)
	}
	st.retired = append(st.retired, added...)
	if len(st.retired) == 0 {
		return 0
	}
	extra := 0
	if s, err := st.sv.Solve(); err == nil {
		extra = s.Iterations
		kept := st.retired[:0]
		for _, r := range st.retired {
			if !st.sv.DropRow(r) {
				kept = append(kept, r)
			}
		}
		st.retired = kept
	}
	return extra
}

// SolvePool enumerates the optimal-solution pool like the package-level
// SolvePool, but warm-starts every solve from the persistent basis: the
// shared objective-bound row is RHS-retargeted instead of re-added, each
// no-good cut re-solves from the incumbent basis, and the tree state
// survives into the next call (after the caller appends pruning cuts). A
// complete enumeration (limit <= 0, the Algorithm 1 configuration) is
// identical as a set to the cold path's; capped pools delegate to the
// clone path outright, because which members survive a cap depends on
// discovery order.
func (st *State) SolvePool(limit int, objTol float64) ([]PoolSolution, *Solution, error) {
	if objTol <= 0 {
		objTol = 1e-6
	}
	p := st.p
	for j := 0; j < p.NumVars; j++ {
		if p.Integer[j] && (p.Lo[j] < -st.opt.IntTol || p.Hi[j] > 1+st.opt.IntTol) {
			return nil, nil, fmt.Errorf("milp: SolvePool requires binary integral variables; %q has bounds [%g,%g]",
				p.Names[j], p.Lo[j], p.Hi[j])
		}
	}
	st.freshenAfterInfeasible()
	st.waste, st.dives = waste{}, waste{}
	if st.legacy {
		return SolvePool(p, st.opt, limit, objTol)
	}
	if limit > 0 {
		// A capped pool is order-dependent: which members survive the cap
		// depends on discovery order, and the single-tree enumeration
		// (DFS) would keep a different — equally valid — subset than the
		// legacy loop's repeated argmin. Caps are an ablation-only
		// configuration (Algorithm 1 always wants the whole slab), so
		// they stay on the clone path and bit-identical to it.
		return SolvePool(p, st.opt, limit, objTol)
	}
	pool, agg, err := st.warmPool(limit, objTol)
	if err != nil {
		// Warm kernel failed (stale basis the cold rebuild could not
		// rescue; warmPool has already attached a fresh solver): run the
		// whole call on the clone-based path. Arena protocol rows are
		// loose, so the legacy solve sees an equivalent problem.
		pool, agg, err = SolvePool(p, st.opt, limit, objTol)
		if err != nil {
			return nil, nil, err
		}
	}
	st.waste.stamp(agg)
	return pool, agg, nil
}

// warmPool runs warmPoolOnce, discarding and redoing the call on a fresh
// solver when a stale-tableau rebuild fired mid-call (see
// lp.SolverStats.StaleRebuilds): the pool assembled up to that point may
// be missing members whose subtrees a drifted basis falsely closed. A
// second stale attempt returns an error, which SolvePool converts into a
// legacy clone-based solve.
func (st *State) warmPool(limit int, objTol float64) ([]PoolSolution, *Solution, error) {
	for attempt := 0; attempt < 2; attempt++ {
		s0 := st.sv.Stats()
		st.dives = waste{}
		pool, agg, err := st.warmPoolOnce(limit, objTol)
		if err != nil {
			st.discard(s0)
			return nil, nil, err
		}
		if st.sv.Stats().StaleRebuilds == s0.StaleRebuilds {
			return pool, agg, nil
		}
		st.discard(s0)
		if st.legacy {
			break
		}
	}
	return nil, nil, fmt.Errorf("milp: warm tableau went stale twice in one pool call")
}

func (st *State) warmPoolOnce(limit int, objTol float64) ([]PoolSolution, *Solution, error) {
	p := st.p
	st.poolCalls++
	s0 := st.sv.Stats()

	// Previous calls leave the objective bound tightened at their optimum;
	// pruning cuts added since push the optimum up, so rest it first.
	if st.objRow >= 0 {
		st.sv.SetRowRHS(st.objRow, st.looseObj)
	}

	agg := &Solution{Status: Infeasible}
	var pool []PoolSolution
	var added []int

	s, err := st.solveWithDive(objTol)
	if err != nil {
		return nil, nil, err
	}
	agg.Nodes += s.Nodes
	agg.LPIterations += s.LPIterations
	agg.Status = s.Status
	if s.Status == Optimal {
		agg.X = s.X
		agg.Objective = s.Objective
		bestInternal := internalMin(p, s.Objective)
		if st.objRow < 0 {
			st.objRow = len(p.Rows)
			st.looseObj = looseObjBound(p)
			coefs := append([]float64(nil), p.Obj...)
			p.AddRow("pool_obj_bound", coefs, linexpr.LE, st.looseObj)
		}
		cutoffRow := bestInternal - p.ObjConst + objTol
		st.sv.SetRowRHS(st.objRow, cutoffRow)
		if st.opt.Workers >= 1 && limit <= 0 {
			// Parallel subtree dives: the whole slab is re-enumerated
			// from disjoint boxes (the first member is rediscovered by
			// its box), deterministically for any worker count.
			pp, err := st.parallelPool(agg, cutoffRow)
			if err != nil {
				return nil, nil, err
			}
			pool = pp
		} else {
			pool = append(pool, PoolSolution{X: s.X, Objective: s.Objective})
			if limit <= 0 || len(pool) < limit {
				added = append(added, st.addNoGood(s.X, 0))
				if err := st.enumerate(agg, &pool, &added, limit, cutoffRow); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	st.infeasibleBasis = agg.Status == Infeasible
	agg.LPIterations += st.retireNoGoods(added)
	d := st.sv.Stats()
	// += so that parallel-dive task contributions (accumulated directly
	// on agg) survive alongside the parent-solver delta.
	agg.WarmSolves += d.WarmSolves - s0.WarmSolves
	agg.ColdSolves += d.ColdSolves - s0.ColdSolves
	agg.Refactorizations += d.Refactorizations - s0.Refactorizations
	agg.IterationCaps += d.IterationCaps - s0.IterationCaps
	st.stampPresolve(agg)
	return pool, agg, nil
}

// stampPresolve copies the construction-time presolve statistics onto a
// result.
func (st *State) stampPresolve(sol *Solution) {
	sol.PresolveFixed = st.pre.FixedVars
	sol.PresolveDropped = st.pre.DroppedRows
	sol.PresolveTightened = st.pre.TightenedCoefs
}

// enumerate collects the rest of the optimal-solution pool in a single
// depth-first tree: the objective-bound row pins the optimum slab, a live
// no-good cut lands the moment a member is found, and the tree simply
// continues — nodes solved before a cut are stale (version stamp) and
// re-solve from the warm basis when popped, so no per-member root restart
// ever happens. Reduced-cost fixing against the slab cutoff collapses the
// tree to the genuinely tied variables.
func (st *State) enumerate(agg *Solution, pool *[]PoolSolution, added *[]int, limit int, cutoffRow float64) error {
	p := st.p
	opt := st.opt
	ver := len(*added)

	st.transition(nil)
	root, err := st.sv.Solve()
	if err != nil {
		return err
	}
	agg.LPIterations += root.Iterations
	switch root.Status {
	case lp.Infeasible:
		return nil // the sole member already found closes the slab
	case lp.Optimal:
	default:
		return fmt.Errorf("milp: warm enumeration root LP status %v", root.Status)
	}

	var rootDiffs []bdiff
	bRow := internalMin(p, root.Objective) - p.ObjConst
	for j := 0; j < p.NumVars; j++ {
		if !p.Integer[j] {
			continue
		}
		lo, hi := st.sv.VarBounds(j)
		if lo == hi {
			continue
		}
		z := st.sv.ReducedCost(j)
		if z > lp.Tolerance && bRow+z > cutoffRow+fixMargin {
			rootDiffs = append(rootDiffs, bdiff{j, lo, lo})
		} else if z < -lp.Tolerance && bRow-z > cutoffRow+fixMargin {
			rootDiffs = append(rootDiffs, bdiff{j, hi, hi})
		}
	}
	st.transition(rootDiffs)

	rootNode := st.newNode(rootDiffs, internalMin(p, root.Objective), root.X, 0)
	rootNode.version = ver
	stack := []*wnode{rootNode}
	defer func() {
		for _, nd := range stack {
			st.release(nd)
		}
	}()

	nodes := 0
	for len(stack) > 0 {
		if nodes >= opt.MaxNodes {
			break // pool truncated, like a NodeLimit solve on the cold path
		}
		n := len(stack) - 1
		nd := stack[n]
		stack = stack[:n]
		nodes++
		if nd.version != ver {
			// A cut landed after this node's relaxation was solved.
			st.transition(nd.diffs)
			cs, err := st.sv.Solve()
			if err != nil {
				return err
			}
			agg.LPIterations += cs.Iterations
			switch cs.Status {
			case lp.Infeasible:
				st.release(nd)
				continue
			case lp.Optimal:
			default:
				return fmt.Errorf("milp: warm enumeration LP status %v", cs.Status)
			}
			nd.bound = internalMin(p, cs.Objective)
			nd.x = cs.X
			nd.version = ver
		}
		frac := mostFractional(p, nd.x, opt.IntTol)
		if frac < 0 {
			xr := roundIntegral(p, nd.x, opt.IntTol)
			*pool = append(*pool, PoolSolution{X: xr, Objective: callerDir(p, nd.bound)})
			if limit > 0 && len(*pool) >= limit {
				st.release(nd)
				break
			}
			*added = append(*added, st.addNoGood(xr, len(*pool)-1))
			ver++
			// Re-push: the node's box may hold further members; the stale
			// version forces a re-solve under the new cut on next pop.
			stack = append(stack, nd)
			continue
		}
		v := nd.x[frac]
		st.transition(nd.diffs)
		lo, hi := st.sv.VarBounds(frac)
		for pass := 0; pass < 2; pass++ {
			d := bdiff{frac, lo, math.Floor(v)}
			if pass == 1 {
				d = bdiff{frac, math.Ceil(v), hi}
			}
			if d.lo > d.hi {
				continue
			}
			diffs := append(nd.diffs[:len(nd.diffs):len(nd.diffs)], d)
			st.transition(diffs)
			cs, err := st.sv.Solve()
			if err != nil {
				return err
			}
			agg.LPIterations += cs.Iterations
			switch cs.Status {
			case lp.Optimal:
				child := st.newNode(diffs, internalMin(p, cs.Objective), cs.X, nd.depth+1)
				child.version = ver
				stack = append(stack, child)
			case lp.Infeasible:
				// prune
			default:
				return fmt.Errorf("milp: warm enumeration child LP status %v", cs.Status)
			}
		}
		st.release(nd)
	}
	agg.Nodes += nodes
	return nil
}
