// Package milp implements an exact mixed-integer linear programming solver
// by branch-and-bound over the internal/lp simplex solver. Together they
// replace CPLEX in the reproduction of the DAC'17 Human Intranet DSE flow.
//
// Beyond a single optimal solution, the package offers what Algorithm 1 of
// the paper requires from its MILP oracle:
//
//   - SolvePool enumerates the *set* of optimal solutions S (multiple
//     configurations can minimize the approximate power expression Eq. 9),
//     using binary no-good cuts;
//   - callers add pruning cuts between iterations by appending rows to the
//     compiled problem (linexpr.Compiled.AddRow), implementing the
//     Update(P̃, P̄ > P̄*) step.
package milp

import (
	"container/heap"
	"fmt"
	"math"

	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
)

// Status describes the outcome of a MILP solve.
type Status int

const (
	// Optimal means a provably optimal integral solution was found.
	Optimal Status = iota
	// Infeasible means no integral solution satisfies the constraints.
	Infeasible
	// Unbounded means the relaxation is unbounded in the optimization
	// direction.
	Unbounded
	// NodeLimit means the node budget ran out before the tree closed.
	NodeLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options tune the branch-and-bound search. The zero value requests
// defaults.
type Options struct {
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// MaxNodes bounds the search-tree size (default 1_000_000).
	MaxNodes int
	// DenseLP forces the dense tableau kernel; SparseLP forces the
	// sparse revised-simplex kernel. With neither set the kernel is
	// chosen by problem size (dense below sparseKernelThreshold
	// rows+vars, sparse above — the crossover where nonzeros-
	// proportional pivots beat cache-resident quadratic updates). The
	// dense path doubles as the correctness oracle: property tests run
	// both kernels and require 1e-9 agreement. DenseLP wins if both are
	// set.
	DenseLP  bool
	SparseLP bool
	// Workers fans pool enumeration out as parallel subtree dives
	// (State.SolvePool only). 0 keeps the sequential single-tree path;
	// any value >= 1 uses the deterministic frontier partition, whose
	// enumerated pool is bit-identical for every worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 1_000_000
	}
	return o
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status Status
	// X is the optimal point with integral variables rounded exactly.
	X []float64
	// Objective is the optimal value in the caller's stated direction.
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// LPIterations accumulates simplex pivots over all nodes.
	LPIterations int
	// WarmSolves and ColdSolves count warm-started dual-simplex re-solves
	// vs cold tableau rebuilds. Both stay zero on the clone-based path,
	// which never warm-starts.
	WarmSolves int
	ColdSolves int
	// Refactorizations counts sparse-basis LU factorizations (zero on
	// the dense kernel and the clone-based path).
	Refactorizations int
	// SparsePivots is the part of LPIterations taken on sparse
	// revised-simplex kernels; the rest ran on the dense tableau or the
	// clone-based path.
	SparsePivots int
	// PresolveFixed, PresolveDropped, and PresolveTightened report the
	// construction-time presolve reductions of the attached State:
	// implied variable fixings, never-binding rows removed, and
	// tightened row coefficients. Zero on the stateless paths.
	PresolveFixed     int
	PresolveDropped   int
	PresolveTightened int
	// ParallelDives counts subtree dive tasks executed by the parallel
	// pool enumeration (zero when Workers == 0).
	ParallelDives int
	// StaleRedos counts warm attempts a State threw away and redid
	// because a kernel went numerically stale or failed: a Solve or pool
	// call redone on a fresh solver, a parallel dive redone cold, and a
	// fall back to the clone-based path. DiscardedPivots is the simplex
	// pivots those attempts cost; LPIterations counts only the work kept.
	StaleRedos      int
	DiscardedPivots int
	// IterationCaps counts warm LP runs, kept or discarded, that stopped
	// at their pivot cap (lp.SolverStats.IterationCaps).
	IterationCaps int
}

// node is one open branch-and-bound subproblem.
type node struct {
	prob  *linexpr.Compiled
	bound float64 // LP relaxation value (internal minimization sense)
	x     []float64
	depth int
}

type nodeQueue []*node

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// internalMin converts a caller-direction objective value to the internal
// minimization sense of the compiled problem.
func internalMin(p *linexpr.Compiled, v float64) float64 {
	if p.Negated {
		return -v
	}
	return v
}

// callerDir converts an internal minimization value back to the caller's
// direction.
func callerDir(p *linexpr.Compiled, v float64) float64 {
	if p.Negated {
		return -v
	}
	return v
}

// Solve finds an optimal integral solution of p by best-first
// branch-and-bound. p is not modified.
func Solve(p *linexpr.Compiled, opt Options) (*Solution, error) {
	opt = opt.withDefaults()
	sol := &Solution{Status: Infeasible}

	root, err := lp.Solve(p)
	if err != nil {
		return nil, err
	}
	sol.LPIterations += root.Iterations
	switch root.Status {
	case lp.Infeasible:
		return sol, nil
	case lp.Unbounded:
		sol.Status = Unbounded
		return sol, nil
	case lp.IterationLimit:
		return nil, fmt.Errorf("milp: root LP hit iteration limit")
	}

	q := &nodeQueue{{prob: p, bound: internalMin(p, root.Objective), x: root.X}}
	heap.Init(q)

	best := math.Inf(1) // incumbent internal-min value
	var bestX []float64

	for q.Len() > 0 {
		if sol.Nodes >= opt.MaxNodes {
			sol.Status = NodeLimit
			break
		}
		nd := heap.Pop(q).(*node)
		sol.Nodes++
		if nd.bound >= best-1e-9 {
			// Best-first: all remaining nodes are at least as bad.
			break
		}
		frac := mostFractional(p, nd.x, opt.IntTol)
		if frac < 0 {
			// Integral: candidate incumbent.
			if nd.bound < best-1e-9 {
				best = nd.bound
				bestX = roundIntegral(p, nd.x, opt.IntTol)
			}
			continue
		}
		v := nd.x[frac]
		floorChild := nd.prob.Clone()
		floorChild.Hi[frac] = math.Floor(v)
		ceilChild := nd.prob.Clone()
		ceilChild.Lo[frac] = math.Ceil(v)
		for _, child := range []*linexpr.Compiled{floorChild, ceilChild} {
			cs, err := lp.Solve(child)
			if err != nil {
				return nil, err
			}
			sol.LPIterations += cs.Iterations
			switch cs.Status {
			case lp.Optimal:
				b := internalMin(p, cs.Objective)
				if b < best-1e-9 {
					heap.Push(q, &node{prob: child, bound: b, x: cs.X, depth: nd.depth + 1})
				}
			case lp.Infeasible:
				// prune
			case lp.Unbounded:
				// A bounded-below parent cannot yield an unbounded child;
				// treat defensively as an error.
				return nil, fmt.Errorf("milp: child LP unbounded under bounded parent")
			case lp.IterationLimit:
				return nil, fmt.Errorf("milp: child LP hit iteration limit")
			}
		}
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

// mostFractional returns the index of the integral variable whose LP value
// is farthest from an integer, or -1 if all integral variables are within
// tol of integrality.
func mostFractional(p *linexpr.Compiled, x []float64, tol float64) int {
	best, bestDist := -1, tol
	for j := 0; j < p.NumVars; j++ {
		if !p.Integer[j] {
			continue
		}
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			best, bestDist = j, dist
		}
	}
	return best
}

// roundIntegral snaps integral variables to the nearest integer.
func roundIntegral(p *linexpr.Compiled, x []float64, tol float64) []float64 {
	out := append([]float64(nil), x...)
	for j := 0; j < p.NumVars; j++ {
		if p.Integer[j] {
			out[j] = math.Round(out[j])
		}
	}
	return out
}

// PoolSolution is one member of an optimal-solution pool.
type PoolSolution struct {
	X         []float64
	Objective float64
}

// SolvePool enumerates optimal solutions of p: all integral solutions whose
// objective is within objTol of the optimum, up to limit entries (limit <=
// 0 means unlimited). It requires every integral variable to be binary,
// because enumeration uses binary no-good cuts. The pool is discovered in
// nondecreasing objective order; Solution carries aggregate statistics and
// the status of the *first* solve.
func SolvePool(p *linexpr.Compiled, opt Options, limit int, objTol float64) ([]PoolSolution, *Solution, error) {
	opt = opt.withDefaults()
	if objTol <= 0 {
		objTol = 1e-6
	}
	for j := 0; j < p.NumVars; j++ {
		if p.Integer[j] && (p.Lo[j] < -opt.IntTol || p.Hi[j] > 1+opt.IntTol) {
			return nil, nil, fmt.Errorf("milp: SolvePool requires binary integral variables; %q has bounds [%g,%g]",
				p.Names[j], p.Lo[j], p.Hi[j])
		}
	}

	work := p.Clone()
	agg := &Solution{Status: Infeasible}
	var pool []PoolSolution
	bestInternal := math.Inf(1)
	for iter := 0; ; iter++ {
		s, err := Solve(work, opt)
		if err != nil {
			return nil, nil, err
		}
		agg.Nodes += s.Nodes
		agg.LPIterations += s.LPIterations
		if iter == 0 {
			agg.Status = s.Status
			if s.Status == Optimal {
				agg.X = s.X
				agg.Objective = s.Objective
				bestInternal = internalMin(p, s.Objective)
				// Bound the objective at the optimum: subsequent pool
				// solves become feasibility searches, letting
				// branch-and-bound prune any node whose relaxation
				// exceeds the known optimal value immediately.
				coefs := append([]float64(nil), work.Obj...)
				work.AddRow("pool_obj_bound", coefs, linexpr.LE, bestInternal-work.ObjConst+objTol)
			}
		}
		if s.Status != Optimal {
			break
		}
		if internalMin(p, s.Objective) > bestInternal+objTol {
			break // objective degraded: pool complete
		}
		pool = append(pool, PoolSolution{X: s.X, Objective: s.Objective})
		if limit > 0 && len(pool) >= limit {
			break
		}
		addNoGoodCut(work, s.X, fmt.Sprintf("nogood_%d", iter), opt.IntTol)
	}
	return pool, agg, nil
}

// addNoGoodCut appends a cut excluding the binary assignment x̂ from the
// feasible set: Σ_{x̂_j=0} x_j + Σ_{x̂_j=1} (1-x_j) >= 1.
func addNoGoodCut(p *linexpr.Compiled, xhat []float64, name string, tol float64) {
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
	p.AddRow(name, coefs, linexpr.GE, float64(1-ones))
}

// CheckFeasible verifies that x satisfies every row, bound, and
// integrality requirement of p within tol, returning a descriptive error
// for the first violation. It is used by tests and by defensive assertions
// in the DSE core.
func CheckFeasible(p *linexpr.Compiled, x []float64, tol float64) error {
	if len(x) != p.NumVars {
		return fmt.Errorf("milp: solution has %d vars, want %d", len(x), p.NumVars)
	}
	for j := 0; j < p.NumVars; j++ {
		if x[j] < p.Lo[j]-tol || x[j] > p.Hi[j]+tol {
			return fmt.Errorf("milp: %s = %g outside [%g, %g]", p.Names[j], x[j], p.Lo[j], p.Hi[j])
		}
		if p.Integer[j] && math.Abs(x[j]-math.Round(x[j])) > tol {
			return fmt.Errorf("milp: %s = %g not integral", p.Names[j], x[j])
		}
	}
	for _, r := range p.Rows {
		lhs := 0.0
		for j, c := range r.Coefs {
			lhs += float64(c * x[j])
		}
		switch r.Sense {
		case linexpr.LE:
			if lhs > r.RHS+tol {
				return fmt.Errorf("milp: row %q violated: %g <= %g", r.Name, lhs, r.RHS)
			}
		case linexpr.GE:
			if lhs < r.RHS-tol {
				return fmt.Errorf("milp: row %q violated: %g >= %g", r.Name, lhs, r.RHS)
			}
		case linexpr.EQ:
			if math.Abs(lhs-r.RHS) > tol {
				return fmt.Errorf("milp: row %q violated: %g == %g", r.Name, lhs, r.RHS)
			}
		}
	}
	return nil
}
