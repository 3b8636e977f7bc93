// Parallel pool enumeration: B&B subtree dives fanned across a worker
// pool with a deterministic merge.
//
// After the first SolvePool solve has pinned the optimum and tightened
// the shared objective-bound row, enumerating the rest of the pool is a
// pure feasibility sweep of a fixed slab — there is no incumbent to
// race on. That makes it parallelizable with a determinism argument
// that needs no locks around shared search state:
//
//  1. The root box is partitioned into disjoint subtree boxes by a
//     breadth-first branching expansion on the parent solver, with NO
//     no-good cuts involved. Branching a binary into [0,0] and [1,1]
//     partitions the integer points exactly, so no solution can appear
//     in two boxes. The expansion targets a fixed frontier size
//     (independent of Workers), so the task list is identical for
//     every worker count.
//  2. Each box becomes one dive task: a clone of the arena with the
//     box bounds burned in, its own kernel warm-started from the basis
//     snapshot taken when the box's relaxation was solved on the
//     parent (bound-diff snapshots make node state cheap to ship), and
//     a sequential within-box enumeration using task-local no-goods.
//  3. Results land in an indexed slot per task; pools are concatenated
//     in task-submission order. Worker scheduling decides only *when*
//     a task runs, never what it returns or where it lands, so the
//     enumerated pool is bit-identical for any Workers value.
//
// Task-level staleness follows the same ladder as the sequential path:
// a task whose kernel drifts is redone once on a fresh cold clone, and
// a second failure aborts the parallel call, which then falls back to
// the sequential or legacy path.
package milp

import (
	"fmt"
	"math"

	"hiopt/internal/engine"
	"hiopt/internal/lp"
)

// partitionTarget is the frontier size the breadth-first expansion aims
// for. It is a constant — NOT derived from Options.Workers — because the
// task list, and with it the merged pool order, must be identical for
// every worker count.
const partitionTarget = 32

// diveTask is one disjoint subtree box plus the warm-start snapshot of
// its relaxation basis on the parent solver (nil for a cold start).
type diveTask struct {
	diffs   []bdiff
	basis   []int
	atUpper []bool
}

// diveResult is one task's enumeration outcome; only pivots and caps,
// its kernel's counters, are meaningful when err is set. waste tallies
// a failed first attempt that the result redid.
type diveResult struct {
	pool    []PoolSolution
	nodes   int
	lpIters int
	warm    int
	cold    int
	refac   int
	pivots  int
	sparse  int // pivots taken on a sparse kernel
	caps    int
	waste   waste
	err     error
}

// snapshotKernel captures the warm-start state of a sparse kernel; dense
// kernels dive cold.
func snapshotKernel(k lp.Kernel) ([]int, []bool) {
	if ss, ok := k.(*lp.SparseSolver); ok {
		return ss.Snapshot()
	}
	return nil, nil
}

// partitionFrontier expands the root into at least partitionTarget
// disjoint subtree boxes (fewer when the tree closes first) using the
// parent solver. Returned tasks are in deterministic expansion order.
// The boolean is false when the slab is empty (no feasible box).
func (st *State) partitionFrontier(agg *Solution, cutoffRow float64) ([]diveTask, bool, error) {
	p := st.p
	st.transition(nil)
	root, err := st.sv.Solve()
	if err != nil {
		return nil, false, err
	}
	agg.LPIterations += root.Iterations
	switch root.Status {
	case lp.Infeasible:
		return nil, false, nil
	case lp.Optimal:
	default:
		return nil, false, fmt.Errorf("milp: partition root LP status %v", root.Status)
	}

	// Root reduced-cost fixing against the slab cutoff, exactly as the
	// sequential enumeration does.
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

	type pnode struct {
		diffs   []bdiff
		x       []float64
		basis   []int
		atUpper []bool
	}
	rb, ru := snapshotKernel(st.sv)
	queue := []pnode{{diffs: rootDiffs, x: root.X, basis: rb, atUpper: ru}}
	var tasks []diveTask
	// Expansion budget: a diverging expansion (deep fractional chains)
	// must not stall the whole call; leftover queue nodes just become
	// coarser tasks.
	budget := 8 * partitionTarget
	for len(queue) > 0 && len(queue)+len(tasks) < partitionTarget && budget > 0 {
		nd := queue[0]
		queue = queue[1:]
		frac := mostFractional(p, nd.x, st.opt.IntTol)
		if frac < 0 {
			// Integral relaxation: the box may still hold further tied
			// members, so it stays a (leaf) task rather than a solution.
			tasks = append(tasks, diveTask{diffs: nd.diffs, basis: nd.basis, atUpper: nd.atUpper})
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
				return nil, false, err
			}
			agg.LPIterations += cs.Iterations
			budget--
			agg.Nodes++
			switch cs.Status {
			case lp.Optimal:
				cb, cu := snapshotKernel(st.sv)
				queue = append(queue, pnode{diffs: diffs, x: cs.X, basis: cb, atUpper: cu})
			case lp.Infeasible:
				// No integer point under the cutoff in this box.
			default:
				return nil, false, fmt.Errorf("milp: partition child LP status %v", cs.Status)
			}
		}
	}
	for _, nd := range queue {
		tasks = append(tasks, diveTask{diffs: nd.diffs, basis: nd.basis, atUpper: nd.atUpper})
	}
	return tasks, true, nil
}

// runDive enumerates one subtree box on its own arena clone and kernel.
// coldStart forces a cold kernel (used by the one-shot stale retry).
//
// The clone mirrors the parent solver's live row set exactly — presolve
// drops via applyReductions, then every dead no-good not still awaiting
// retirement — which is the shape InstallBasis requires of the shipped
// snapshot.
func (st *State) runDive(task diveTask, cutoffRow float64, coldStart bool) diveResult {
	clone := st.p.Clone()
	for _, d := range task.diffs {
		clone.Lo[d.j], clone.Hi[d.j] = d.lo, d.hi
	}
	local := &State{p: clone, opt: st.opt, objRow: st.objRow, red: st.red}
	sv, err := st.opt.newKernel(clone)
	if err != nil {
		return diveResult{err: err}
	}
	local.sv = sv
	local.applyReductions()
	pending := make(map[int]bool, len(st.retired))
	for _, r := range st.retired {
		pending[r] = true
	}
	for _, r := range st.dead {
		if !pending[r] {
			sv.DropRow(r)
		}
	}
	sv.SetRowRHS(st.objRow, cutoffRow)
	if !coldStart && task.basis != nil {
		if ss, ok := sv.(*lp.SparseSolver); ok {
			ss.InstallBasis(task.basis, task.atUpper)
		}
	}

	s0 := sv.Stats()
	agg := &Solution{}
	var pool []PoolSolution
	var added []int
	err = local.enumerate(agg, &pool, &added, 0, cutoffRow)
	d := sv.Stats()
	if err == nil && d.StaleRebuilds != s0.StaleRebuilds {
		err = fmt.Errorf("milp: dive kernel went stale")
	}
	return diveResult{
		pool:    pool,
		nodes:   agg.Nodes,
		lpIters: agg.LPIterations,
		warm:    d.WarmSolves - s0.WarmSolves,
		cold:    d.ColdSolves - s0.ColdSolves,
		refac:   d.Refactorizations - s0.Refactorizations,
		pivots:  d.Pivots - s0.Pivots,
		sparse:  sparsePivots(sv, d.Pivots-s0.Pivots),
		caps:    d.IterationCaps - s0.IterationCaps,
		err:     err,
	}
}

// parallelPool enumerates the whole optimum slab by fanning disjoint
// subtree dives across engine.RunIndexed and concatenating per-task
// pools in task order. The returned pool includes every member (the
// first solve's member is rediscovered by its box), and is bit-identical
// for every Options.Workers >= 1.
func (st *State) parallelPool(agg *Solution, cutoffRow float64) ([]PoolSolution, error) {
	tasks, feasible, err := st.partitionFrontier(agg, cutoffRow)
	if err != nil {
		return nil, err
	}
	if !feasible || len(tasks) == 0 {
		return nil, fmt.Errorf("milp: empty partition for a slab with a known member")
	}
	results := make([]diveResult, len(tasks))
	engine.RunIndexed(st.opt.Workers, len(tasks), func(i int) {
		r := st.runDive(tasks[i], cutoffRow, false)
		if r.err != nil {
			// One deterministic retry on a fresh cold clone, mirroring
			// the sequential stale ladder.
			failed := waste{1, r.pivots, r.caps}
			r = st.runDive(tasks[i], cutoffRow, true)
			r.waste = failed
		}
		results[i] = r
	})
	// Every dive's work is tallied before any error is returned: a
	// failed call is redone, and all of its dives are discarded with it.
	var pool []PoolSolution
	var firstErr error
	for i := range results {
		r := &results[i]
		st.waste.add(r.waste)
		st.dives.add(waste{pivots: r.pivots, caps: r.caps})
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		pool = append(pool, r.pool...)
		agg.Nodes += r.nodes
		agg.LPIterations += r.lpIters
		agg.WarmSolves += r.warm
		agg.ColdSolves += r.cold
		agg.Refactorizations += r.refac
		agg.SparsePivots += r.sparse
		agg.IterationCaps += r.caps
		agg.ParallelDives++
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("milp: parallel enumeration lost the slab's known member")
	}
	return pool, nil
}
