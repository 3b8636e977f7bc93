package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"hiopt/internal/design"
	"hiopt/internal/fault"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
)

// This file is Algorithm 1's class ledger: the power classes the warm
// MILP oracle has produced, kept in the engine's side table (engine.Ledger)
// so that any later run over the same relaxation on the same engine
// replays them instead of solving them again. P̃ depends only on the
// constraints, the radio, the rate, the packet time, the hop count and
// the baseline power — not on PDRMin, the body geometry, the channel, the
// battery or the seed — so the bounds of a ParetoFront and the tenants of
// a daemon share one class chain, and each of its classes is solved once
// per engine instead of once per run.

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
	// The key: the compiled arena before presolve and cuts, its ledger
	// hash, and the options that shape pools or the pivot path; and the
	// model that decodes the arena's solutions. Immutable.
	key       *linexpr.Compiled
	hash      uint64
	poolLimit int
	workers   int
	mm        *milpModel

	// broken is set, with failed, when an extension failed: the ledger
	// then files a fresh record in this one's place. It is an atomic so
	// the ledger's lookup never waits on mu, which a solve holds.
	broken atomic.Bool

	mu sync.Mutex
	// Guarded by mu: the record's cut arena and warm state, built from
	// the key by the first extension; the classes solved on them; and
	// the error of a failed extension.
	work    *linexpr.Compiled
	st      *milp.State
	classes []*oracleClass
	failed  error
}

// recordHash is the ledger hash of a relaxation: the compiled arena's
// hash with the pool-shaping options folded in.
func recordHash(work *linexpr.Compiled, opts Options) uint64 {
	h := fault.CombineKeys(work.Hash(), uint64(opts.PoolLimit))
	return fault.CombineKeys(h, uint64(opts.MILPWorkers))
}

// matches reports whether a run compiling work under opts would make the
// same oracle calls as this record.
func (r *classRecord) matches(work *linexpr.Compiled, opts Options) bool {
	return r.poolLimit == opts.PoolLimit && r.workers == opts.MILPWorkers && r.key.Equal(work)
}

// classRecord returns the record a run over the freshly compiled arena
// work replays from: the engine ledger's record for that relaxation when
// one is filed and no extension of it failed, else a new record keyed on
// work (which it takes ownership of, with mm's decoder) and filed in the
// ledger, charged from its first extension on. Filing builds no solver
// state, so the ledger's lock is held only for the lookup. A run holds
// on to the record it got, so neither a concurrent run that replaces it
// nor an eviction disturbs it.
func (o *Optimizer) classRecord(mm *milpModel, work *linexpr.Compiled) *classRecord {
	h := recordHash(work, o.Options)
	return o.eng.Ledger(h, func(v any) bool {
		r := v.(*classRecord)
		return !r.broken.Load() && r.matches(work, o.Options)
	}, func() any {
		return &classRecord{
			key:       work,
			hash:      h,
			poolLimit: o.Options.PoolLimit,
			workers:   o.Options.MILPWorkers,
			mm:        mm.decoder(),
		}
	}).(*classRecord)
}

// bytes is the record's footprint for the engine's budget: the record,
// its key and cut arenas, its warm state as the MILP and LP kernels size
// it (the sparse kernel's LU factors and eta file included), its decode
// model and its decoded classes. Callers hold mu.
func (r *classRecord) bytes() int64 {
	n := int64(unsafe.Sizeof(*r)) + r.key.Bytes() + r.mm.bytes()
	if r.work != nil {
		n += r.work.Bytes()
	}
	if r.st != nil {
		n += r.st.Bytes()
	}
	for _, c := range r.classes {
		n += int64(unsafe.Sizeof(*c)) + int64(cap(c.points))*int64(unsafe.Sizeof(design.Point{}))
	}
	return n
}

// oracle returns the record's chain as seen by a run of o: round i
// replays classes[i] when it exists and otherwise extends the record by
// one call, building the cut arena and warm state from the key on the
// first. Before an extension it adds the previous class's prune cut,
// so the state sees exactly a fresh run's call sequence — SolvePool, cut,
// SolvePool, … — and the pool is verified against the arena a fresh run
// would verify it against. An extension re-charges the record's grown
// footprint to the engine's budget.
func (r *classRecord) oracle(o *Optimizer) classOracle {
	return func(i int) (*oracleClass, bool, error) {
		c, replayed, n, err := r.class(o, i)
		if n > 0 {
			o.eng.LedgerCharge(r.hash, r, n)
		}
		return c, replayed, err
	}
}

// class returns round i's class, extending the record when needed; n is
// the record's grown footprint after an extension (0 otherwise).
func (r *classRecord) class(o *Optimizer, i int) (c *oracleClass, replayed bool, n int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < len(r.classes) {
		return r.classes[i], true, 0, nil
	}
	if r.failed != nil {
		return nil, false, 0, r.failed
	}
	if r.st == nil {
		r.work = r.key.Clone()
		r.st = milp.NewState(r.work, milp.Options{Workers: r.workers})
	}
	if i > 0 {
		pruneCut(r.mm, r.work, i-1, r.classes[i-1].pStar)
	}
	c, err = o.solveClass(r.mm, r.work, func() ([]milp.PoolSolution, *milp.Solution, error) {
		return r.st.SolvePool(r.poolLimit, 1e-6)
	})
	if err != nil {
		r.failed = err
		r.broken.Store(true)
		return nil, false, 0, err
	}
	r.classes = append(r.classes, c)
	return c, false, r.bytes(), nil
}
