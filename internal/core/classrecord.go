package core

import (
	"fmt"
	"sync"

	"hiopt/internal/design"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
)

// This file is the Optimizer's class record: the power classes its warm
// MILP oracle has produced, kept so that a later run over the same
// relaxation replays them instead of solving them again. P̃ depends only
// on the constraints, the radio and Eq. (9) — not on PDRMin — so the
// bounds of a ParetoFront share one class chain, and each of its classes
// is solved once per front instead of once per bound.

// oracleClass is one call of Algorithm 1's MILP oracle: the power class
// it returned (P̄* and the decoded pool, in pool order), the solve's
// counters, and the outcome of verifying the pool against the arena.
type oracleClass struct {
	pStar  float64
	points []design.Point
	// agg is the SolvePool aggregate with X dropped: status and effort.
	agg milp.Solution
	// exhausted marks a call that found no further candidates
	// (Algorithm 1's lines 4–5): the chain ends here.
	exhausted bool
	// err is a pool member's verification failure. It is returned only
	// when a round consumes the class, as a fresh run would return it
	// only after its α check passed.
	err error
}

// solveClass makes one oracle call on the arena work and verifies and
// decodes its pool, exactly as a fresh run does it.
func (o *Optimizer) solveClass(mm *milpModel, work *linexpr.Compiled, solve func() ([]milp.PoolSolution, *milp.Solution, error)) (*oracleClass, error) {
	pool, agg, err := solve()
	if err != nil {
		return nil, err
	}
	c := &oracleClass{pStar: agg.Objective, agg: *agg}
	c.agg.X = nil
	c.exhausted = agg.Status != milp.Optimal || len(pool) == 0
	if !c.exhausted {
		c.points, c.err = o.decodePool(mm, work, pool)
	}
	return c, nil
}

// decodePool decodes a solution pool and defensively verifies every
// member against the arena it was solved on: the arena's rows and
// integrality (CheckFeasible) and the linearized objective against
// AnalyticPower (checkExactness).
func (o *Optimizer) decodePool(mm *milpModel, work *linexpr.Compiled, pool []milp.PoolSolution) ([]design.Point, error) {
	points := make([]design.Point, len(pool))
	for i, ps := range pool {
		if err := milp.CheckFeasible(work, ps.X, 1e-6); err != nil {
			return nil, fmt.Errorf("core: MILP returned infeasible pool member: %v", err)
		}
		if err := mm.checkExactness(o.Problem, ps.X); err != nil {
			return nil, err
		}
		points[i] = mm.decode(ps.X)
	}
	return points, nil
}

// cutEpsilonMW is the strictness margin of the Update step's P̄ > P̄*
// cut. It must sit well above the MILP integrality tolerance (else
// near-integral LP points can cheat the cut) and well below the smallest
// separation between distinct power classes (~15 µW for the CC2650 Tx
// modes): 0.1 µW.
const cutEpsilonMW = 1e-4

// pruneCut appends Algorithm 1's Update(P̃, P̄ > P̄*) row after round i.
func pruneCut(mm *milpModel, work *linexpr.Compiled, i int, pStar float64) {
	work.AddExprRow(fmt.Sprintf("prune_%d", i), mm.objective, linexpr.GE, pStar+cutEpsilonMW)
}

// classOracle returns round i's class and whether it was replayed.
type classOracle func(i int) (c *oracleClass, replayed bool, err error)

// classRecord is the oracle chain of one relaxation: the arena and
// milp.State a fresh run would build, plus every class the state has
// produced so far, in order. classes is always a prefix of the fresh
// chain, so round i of any run on the same key may take classes[i].
type classRecord struct {
	// The key: the compiled arena before presolve and cuts, and the
	// options that shape pools or the pivot path. Immutable.
	key       *linexpr.Compiled
	poolLimit int
	workers   int

	mu sync.Mutex
	// Guarded by mu: the record's own model, cut arena and warm state;
	// the classes solved on them; and the error of a failed extension.
	mm      *milpModel
	work    *linexpr.Compiled
	st      *milp.State
	classes []*oracleClass
	failed  error
}

// matches reports whether a run compiling work under the optimizer's
// current options would make the same oracle calls as this record.
func (r *classRecord) matches(work *linexpr.Compiled, opts Options) bool {
	return r.poolLimit == opts.PoolLimit && r.workers == opts.MILPWorkers && r.key.Equal(work)
}

// classRecord returns the record a run over the freshly compiled arena
// work replays from: the optimizer's current record when its key
// matches and no extension of it failed, else a new record that takes
// ownership of mm and work and replaces the old one. A run holds on to
// the record it got, so a concurrent run that replaces it does not
// disturb it.
func (o *Optimizer) classRecord(mm *milpModel, work *linexpr.Compiled) *classRecord {
	o.recMu.Lock()
	defer o.recMu.Unlock()
	if r := o.rec; r != nil && r.matches(work, o.Options) {
		r.mu.Lock()
		failed := r.failed
		r.mu.Unlock()
		if failed == nil {
			return r
		}
	}
	r := &classRecord{
		key:       work.Clone(),
		poolLimit: o.Options.PoolLimit,
		workers:   o.Options.MILPWorkers,
		mm:        mm,
		work:      work,
		st:        milp.NewState(work, milp.Options{Workers: o.Options.MILPWorkers}),
	}
	o.rec = r
	return r
}

// oracle returns the record's chain as seen by a run of o: round i
// replays classes[i] when it exists and otherwise extends the record by
// one call. Before an extension it adds the previous class's prune cut,
// so the state sees exactly a fresh run's call sequence — SolvePool, cut,
// SolvePool, … — and the pool is verified against the arena a fresh run
// would verify it against.
func (r *classRecord) oracle(o *Optimizer) classOracle {
	return func(i int) (*oracleClass, bool, error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if i < len(r.classes) {
			return r.classes[i], true, nil
		}
		if r.failed != nil {
			return nil, false, r.failed
		}
		if i > 0 {
			pruneCut(r.mm, r.work, i-1, r.classes[i-1].pStar)
		}
		c, err := o.solveClass(r.mm, r.work, func() ([]milp.PoolSolution, *milp.Solution, error) {
			return r.st.SolvePool(r.poolLimit, 1e-6)
		})
		if err != nil {
			r.failed = err
			return nil, false, err
		}
		r.classes = append(r.classes, c)
		return c, false, nil
	}
}
