package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
)

// This file is the ε-constraint Pareto sweep: enumerate the
// NLT/PDR/latency trade-off front by sweeping the reliability bound
// PDRmin, where every front point after the first is a warm dual-simplex
// retarget of one persistent milp.State — a single SetRowRHS on the
// PDR-floor row, the same one-row-move trick RetargetGamma proved out —
// instead of a cold Algorithm 1 restart. The front is provably identical
// to per-bound cold runs (see the record-replay argument on warmBound);
// the cost is one full enumeration at the loosest bound plus incremental
// re-solves, with adjacent bounds sharing every simulation through the
// engine cache.

// ParetoHandle locates the ε-dependent artifact of a sweep compilation —
// the PDR-floor row Σ_m y_m·ceiling(m) >= ε over the one-hot node-count
// selectors — inside the compiled arena. Because the y variables are
// one-hot (Σ y_m = 1), the selected node count's analytic PDR ceiling
// appears on the left with the swept bound ε purely on the right-hand
// side: a bound move is one SetRowRHS call and the warm kernel re-solves
// from its current basis by dual simplex. The row is Protect-tagged:
// presolve must not specialize the matrix against a right-hand side that
// is about to move (which also keeps the row SetRowRHS-addressable).
type ParetoHandle struct {
	// FloorRow is the arena row index of the PDR-floor row.
	FloorRow int
	// Gamma and FailFrac echo the compilation's robust configuration;
	// they determine the per-node-count ceilings frozen into the row's
	// coefficients.
	Gamma    float64
	FailFrac float64
	// Epsilon is the currently targeted floor.
	Epsilon float64
}

// Ceiling is the analytic network-PDR ceiling of an n-node design under
// the compilation's fault model: with Γ adversarial failures each
// delivering only FailFrac of its traffic, the PDR proxy cannot exceed
// (n − Γ(1−FailFrac))/n. In the nominal compilation (Γ = 0) the ceiling
// is 1 for every n — the floor row is then deliberately non-binding (the
// simulator is the feasibility oracle and an analytic cut could wrongly
// exclude designs) but still lives in the basis, so the warm retarget
// path is exercised identically in both modes.
func (h *ParetoHandle) Ceiling(n int) float64 {
	if h.Gamma <= 0 {
		return 1
	}
	return (float64(n) - h.Gamma*(1-h.FailFrac)) / float64(n)
}

// Admits reports whether an n-node design satisfies the floor row at
// bound eps, under the same tolerance the MILP feasibility check uses.
// It is the analytic predicate the warm sweep replays recorded pool
// members against, exactly reproducing what the floor row would have
// pruned in a cold solve at eps.
func (h *ParetoHandle) Admits(n int, eps float64) bool {
	return h.Ceiling(n) >= eps-1e-6
}

// Retarget moves a live warm MILP state (built over this handle's
// compiled arena) to a new floor via a single right-hand-side mutation —
// no recompilation, no cold rebuild.
func (h *ParetoHandle) Retarget(st *milp.State, eps float64) {
	st.SetRowRHS(h.FloorRow, eps)
	h.Epsilon = eps
}

// RetargetArena retargets the compiled arena directly (the cold-path
// equivalent of Retarget, for callers without a warm state).
func (h *ParetoHandle) RetargetArena(work *linexpr.Compiled, eps float64) {
	work.Rows[h.FloorRow].RHS = eps
	h.Epsilon = eps
}

// buildParetoMILP lowers the problem (with its optional Γ-protection
// families) and appends the ε-constraint PDR-floor row targeting eps.
func buildParetoMILP(pr *design.Problem, rc RobustCompile, eps float64) (*milpModel, *ParetoHandle, error) {
	rc = rc.withDefaults(pr)
	mm, _, err := buildRobustMILP(pr, rc)
	if err != nil {
		return nil, nil, err
	}
	h := &ParetoHandle{Gamma: rc.Gamma, FailFrac: rc.FailFrac, Epsilon: eps}
	var floor linexpr.Expr
	for mi, n := range mm.nodeCounts {
		floor = floor.PlusTerm(mm.yVars[mi], h.Ceiling(n))
	}
	m := mm.model
	m.Add("pareto_floor", floor, linexpr.GE, eps)
	h.FloorRow = m.NumConstraints() - 1
	m.Protect(h.FloorRow)
	return mm, h, nil
}

// CompileMILPPareto lowers a problem to its sweep-ready compiled
// relaxation: the (optionally Γ-protected) MILP plus the PDR-floor row at
// the initial bound eps, returned with the objective expression and the
// floor's retarget handle. This is the entry point for driving raw warm
// ε-retarget chains (the pareto_warm_front benchmark) outside the full
// sweep driver.
func CompileMILPPareto(pr *design.Problem, rc RobustCompile, eps float64) (*linexpr.Compiled, linexpr.Expr, *ParetoHandle, error) {
	mm, h, err := buildParetoMILP(pr, rc, eps)
	if err != nil {
		return nil, linexpr.Expr{}, nil, err
	}
	return mm.model.Compile(), mm.objective, h, nil
}

// SweepOptions configure ParetoSweep.
type SweepOptions struct {
	// Bounds are the PDRmin values of the ε-constraint sweep, enforced in
	// ascending order whatever order they are given in (ascending bounds
	// only ever tighten the floor, which is what lets the warm path
	// replay recorded pools instead of re-enumerating). Empty selects
	// DefaultSweepBounds.
	Bounds []float64
	// LatencyMax, when positive, adds a second ε constraint: a candidate
	// is only feasible when its p95 end-to-end delivery latency (seconds)
	// is at or below this bound. It is enforced on the simulated metric —
	// the MILP has no latency model — so it filters candidates, not
	// power classes.
	LatencyMax float64
	// Cold switches to the A/B baseline: every bound is an independent
	// cold Algorithm 1 run (fresh MILP compile and state, full pool
	// enumeration), sharing only the simulation engine. The front is
	// identical to the warm path's; the MILP effort is not — that delta
	// is the point of the sweep.
	Cold bool
	// Adaptive tightens replication spending to the front: full-fidelity
	// evaluations carry a confidence gate whose band spans every swept
	// bound (plus FeasTol and a safety margin), so designs decisively
	// outside the swept reliability range stop replicating early while
	// anything near a bound keeps its full budget. The gate is fixed for
	// the whole sweep, so warm and cold paths see identical metrics. As
	// with Options.AdaptiveReps, a gated engine should not be shared
	// with non-gated users of the same fidelity.
	Adaptive bool
	// Options are the base Algorithm 1 options (engine, robust proposal,
	// pool limits, tolerances). TwoStage is rejected: its screening
	// threshold depends on the bound being swept, which would break
	// warm/cold front identity.
	Options Options
}

// sweepGateSlack widens the Adaptive gate band beyond the swept range so
// the early-stop decision is made safely away from any bound: a gated
// stop requires the PDR confidence interval to clear the whole band, and
// the slack keeps estimate wobble from stopping a design whose true PDR
// sits near the outermost bound.
const sweepGateSlack = 0.02

// DefaultSweepBounds is the default 16-point ε grid, PDRmin 0.50 to 0.95
// in steps of 0.03.
func DefaultSweepBounds() []float64 {
	b := make([]float64, 16)
	for i := range b {
		b[i] = 0.50 + 0.03*float64(i)
	}
	return b
}

// SweepPoint is one ε-constraint front point.
type SweepPoint struct {
	// PDRMin is the reliability bound this point was optimized under.
	PDRMin float64
	// Best is the minimum-power design feasible at the bound (nil when
	// the bound is infeasible).
	Best *Candidate
	// Dominated marks points another sweep point strictly improves on
	// (or renders redundant) in the (PDR, NLT, p95 latency) objective
	// space; the non-dominated remainder is the Pareto front.
	Dominated bool
	// LPIterations is the simplex pivot count this bound cost — the
	// per-point incremental re-solve price (0 for a warm bound fully
	// answered from the record).
	LPIterations int
}

// SweepResult is the outcome of one ε-constraint sweep.
type SweepResult struct {
	// Points holds one entry per swept bound, in ascending bound order.
	Points []SweepPoint
	// LPIterations, MILPNodes and the solve-mode split aggregate the
	// MILP effort of the whole sweep — the headline comparison against
	// the Cold baseline.
	LPIterations   int
	MILPNodes      int
	MILPWarmSolves int
	MILPColdSolves int
	// Evaluations counts candidate evaluations submitted to the engine;
	// CandidateUses counts candidate scorings across all bounds (a
	// design scored at k bounds counts k times). Their ratio — see
	// FreshEvalFrac — is how much of the front rode on shared
	// evaluations. Simulations counts fresh simulator runs; RepsSaved
	// counts gated replications avoided; SimulatedSeconds totals fresh
	// simulated time.
	Evaluations      int
	CandidateUses    int
	Simulations      int
	RepsSaved        int
	SimulatedSeconds float64
	// Engine is the engine counter delta over the sweep; its FreshFrac
	// is the fraction of submissions that needed a fresh simulation
	// (small when adjacent bounds share their evaluations).
	Engine engine.Stats
}

// FreshEvalFrac is the fraction of candidate scorings that required a
// fresh evaluation submission: Evaluations over CandidateUses. The warm
// sweep answers most bounds entirely from recorded evaluations, so the
// fraction is a minority for any front with more than a few points; the
// cold baseline resubmits every bound (its sharing happens one layer
// down, in the engine cache — see Engine.FreshFrac).
func (r *SweepResult) FreshEvalFrac() float64 {
	if r.CandidateUses == 0 {
		return 0
	}
	return float64(r.Evaluations) / float64(r.CandidateUses)
}

// Front returns the non-dominated subset of Points, in bound order.
func (r *SweepResult) Front() []SweepPoint {
	var front []SweepPoint
	for _, p := range r.Points {
		if !p.Dominated {
			front = append(front, p)
		}
	}
	return front
}

// ParetoSweep enumerates the NLT/PDR/latency front over the given
// reliability bounds. The problem's PDRMin field is overwritten (pinned
// to the lowest bound for the sweep's shared evaluation context).
func ParetoSweep(pr *design.Problem, so SweepOptions) (*SweepResult, error) {
	return ParetoSweepCtx(context.Background(), pr, so)
}

// ParetoSweepCtx is ParetoSweep under a cancellation context, honoured at
// class granularity in the driver and at replication granularity inside
// the engine.
func ParetoSweepCtx(ctx context.Context, pr *design.Problem, so SweepOptions) (*SweepResult, error) {
	if so.Options.TwoStage {
		return nil, fmt.Errorf("core: ParetoSweep does not support TwoStage screening: the screen threshold moves with the swept bound, breaking warm/cold front identity")
	}
	bounds := append([]float64(nil), so.Bounds...)
	if len(bounds) == 0 {
		bounds = DefaultSweepBounds()
	}
	sort.Float64s(bounds)
	// Pin the problem bound to the loosest swept value: every
	// bound-sensitive decision inside the shared evaluation machinery
	// (robust-family skip for nominally infeasible candidates, the
	// robust sealing threshold) is then fixed across the sweep, so warm
	// and cold paths make identical calls in identical order.
	pr.PDRMin = bounds[0]
	o := NewOptimizer(pr, so.Options)
	if o.engErr != nil {
		return nil, o.engErr
	}
	if so.Adaptive {
		lo, hi := bounds[0], bounds[len(bounds)-1]
		o.fullGate = &netsim.Gate{
			PDRMin: (lo + hi) / 2,
			Margin: (hi-lo)/2 + o.Options.FeasTol + sweepGateSlack,
		}
	}
	rc := o.robustCompile()
	res := &SweepResult{}
	sw := &sweeper{o: o, so: so, rc: rc, res: res}
	if !so.Cold {
		mm, h, err := buildParetoMILP(o.Problem, rc, bounds[0])
		if err != nil {
			return nil, err
		}
		sw.mm, sw.h = mm, h
		sw.work = mm.model.Compile()
		sw.st = milp.NewState(sw.work, milp.Options{
			DenseLP: o.Options.DenseMILP,
			Workers: o.Options.MILPWorkers,
		})
	}
	engStart := o.eng.Stats()
	for _, b := range bounds {
		lp0 := res.LPIterations
		var best *Candidate
		var err error
		if so.Cold {
			best, err = sw.coldBound(ctx, b)
		} else {
			best, err = sw.warmBound(ctx, b)
		}
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, SweepPoint{
			PDRMin: b, Best: best, LPIterations: res.LPIterations - lp0,
		})
	}
	res.Engine = o.eng.Stats().Sub(engStart)
	markDominated(res.Points)
	return res, nil
}

// sweepClass is one recorded power class: the pool enumerated at some
// floor value, with its evaluations filled in lazily (a class discovered
// by an α-terminated extension is recorded unsimulated; a later, tighter
// bound that walks past it pays for its simulations then).
type sweepClass struct {
	pStar  float64
	points []design.Point
	evals  []pointEval
}

// sweeper carries the shared state of one sweep.
type sweeper struct {
	o   *Optimizer
	so  SweepOptions
	rc  RobustCompile
	res *SweepResult

	// Warm-path state: one compiled arena and milp.State persist across
	// every bound, accumulating prune cuts; classes is the record of
	// power classes enumerated so far, ascending in pStar; exhausted
	// marks that enumeration hit MILP exhaustion (at some floor value —
	// every later bound is tighter, so the record is then complete for
	// the rest of the sweep).
	mm        *milpModel
	h         *ParetoHandle
	work      *linexpr.Compiled
	st        *milp.State
	classes   []sweepClass
	exhausted bool
	cuts      int
}

// warmBound answers one bound from the shared record, extending it by
// warm incremental solves only when the record runs out.
//
// Why the replayed front is identical to a cold run at bound b: (1) the
// floor row's only effect on the MILP is excluding node counts whose
// analytic ceiling sits below b, and Admits replays exactly that
// predicate against recorded pool members, so each recorded class
// filtered at b equals the corresponding cold class as a set (a cold
// class that vanishes entirely at b corresponds to a recorded class
// whose filter comes up empty and is skipped, just as cold's enumeration
// skips it); (2) every candidate's simulated metrics are deterministic
// and cached, so warm and cold score identical candidates identically;
// (3) the per-bound incumbent scan reuses Algorithm 1's exact semantics
// (stable sort by simulated power, strictly-better update) over the same
// candidate sequence; and (4) the α bound is checked against the same
// per-class minimum analytic power cold observes, so both walks stop at
// the same class. Classes beyond a bound's α stop cannot change its
// argmin by the α bound's own soundness argument.
func (sw *sweeper) warmBound(ctx context.Context, b float64) (*Candidate, error) {
	o := sw.o
	pMin := math.Inf(1)
	var best *Candidate
	for ci := range sw.classes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cls := &sw.classes[ci]
		var sel []int
		pStar := math.Inf(1)
		for i, p := range cls.points {
			if !sw.h.Admits(p.N(), b) {
				continue
			}
			sel = append(sel, i)
			if a := o.Problem.AnalyticPower(p); a < pStar {
				pStar = a
			}
		}
		if len(sel) == 0 {
			continue
		}
		if sw.alphaStop(best, pMin, pStar, b) {
			return best, nil
		}
		if err := sw.ensureEvals(ctx, cls); err != nil {
			return nil, err
		}
		updateIncumbent(sw.buildCandidates(cls, sel, b), &pMin, &best)
	}
	// The record is spent and the walk did not terminate: retarget the
	// floor to b and extend the enumeration warm. The retarget is the
	// one-row move — the persistent state re-solves from its current
	// basis (with all accumulated prune cuts) by dual simplex.
	if !sw.exhausted && sw.h.Epsilon != b {
		sw.h.Retarget(sw.st, b)
	}
	for !sw.exhausted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pool, agg, err := sw.st.SolvePool(o.Options.PoolLimit, 1e-6)
		if err != nil {
			return nil, err
		}
		sw.countSolve(agg)
		if agg.Status != milp.Optimal || len(pool) == 0 {
			sw.exhausted = true
			break
		}
		pStar := agg.Objective
		points, err := sw.o.decodePool(sw.mm, sw.work, pool)
		if err != nil {
			return nil, err
		}
		sw.classes = append(sw.classes, sweepClass{pStar: pStar, points: points})
		// Prune the class from the persistent state whether or not this
		// bound consumes it, so extension never re-enumerates it.
		sw.work.AddExprRow(fmt.Sprintf("sweep_prune_%d", sw.cuts), sw.mm.objective, linexpr.GE, pStar+o.Options.CutEpsilonMW)
		sw.cuts++
		if sw.alphaStop(best, pMin, pStar, b) {
			return best, nil
		}
		cls := &sw.classes[len(sw.classes)-1]
		if err := sw.ensureEvals(ctx, cls); err != nil {
			return nil, err
		}
		sel := make([]int, len(cls.points))
		for i := range sel {
			sel[i] = i
		}
		updateIncumbent(sw.buildCandidates(cls, sel, b), &pMin, &best)
	}
	return best, nil
}

// coldBound is one independent cold Algorithm 1 run at bound b: fresh
// compile (floor row at b), fresh MILP state, full pool enumeration.
// Only the simulation engine is shared.
func (sw *sweeper) coldBound(ctx context.Context, b float64) (*Candidate, error) {
	o := sw.o
	mm, _, err := buildParetoMILP(o.Problem, sw.rc, b)
	if err != nil {
		return nil, err
	}
	work := mm.model.Compile()
	st := milp.NewState(work, milp.Options{
		DenseLP: o.Options.DenseMILP,
		Workers: o.Options.MILPWorkers,
	})
	pMin := math.Inf(1)
	var best *Candidate
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pool, agg, err := st.SolvePool(o.Options.PoolLimit, 1e-6)
		if err != nil {
			return nil, err
		}
		sw.countSolve(agg)
		if agg.Status != milp.Optimal || len(pool) == 0 {
			break
		}
		pStar := agg.Objective
		if sw.alphaStop(best, pMin, pStar, b) {
			break
		}
		points, err := sw.o.decodePool(mm, work, pool)
		if err != nil {
			return nil, err
		}
		cls := sweepClass{pStar: pStar, points: points}
		if err := sw.ensureEvals(ctx, &cls); err != nil {
			return nil, err
		}
		sel := make([]int, len(points))
		for i := range sel {
			sel[i] = i
		}
		updateIncumbent(sw.buildCandidates(&cls, sel, b), &pMin, &best)
		pruneCut(mm, work, iter, pStar, o.Options.CutEpsilonMW)
	}
	return best, nil
}

// alphaStop is Algorithm 1's line-5 early termination at bound b.
func (sw *sweeper) alphaStop(best *Candidate, pMin, pStar, b float64) bool {
	return !sw.o.Options.DisableAlphaBound && best != nil &&
		pStar/sw.o.alphaAt(best.Point, b) > pMin
}

func (sw *sweeper) countSolve(agg *milp.Solution) {
	sw.res.LPIterations += agg.LPIterations
	sw.res.MILPNodes += agg.Nodes
	sw.res.MILPWarmSolves += agg.WarmSolves
	sw.res.MILPColdSolves += agg.ColdSolves
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

// ensureEvals simulates a class's pool if it has not been simulated yet
// (through the shared engine: a point already evaluated for an earlier
// bound, or by a cold A/B pass, is a cache hit).
func (sw *sweeper) ensureEvals(ctx context.Context, cls *sweepClass) error {
	if cls.evals != nil {
		return nil
	}
	evals, stats, err := sw.o.simulateAll(ctx, cls.points)
	if err != nil {
		return err
	}
	cls.evals = evals
	sw.res.Evaluations += len(cls.points)
	sw.res.Simulations += stats.runs
	sw.res.SimulatedSeconds += stats.seconds
	sw.res.RepsSaved += stats.savedRuns
	return nil
}

// buildCandidates scores the selected pool members against bound b. The
// swept bound is the feasibility floor for both the nominal PDR and, in
// robust mode, the scenario-family statistic; LatencyMax (when set)
// vetoes candidates whose p95 latency exceeds it.
func (sw *sweeper) buildCandidates(cls *sweepClass, sel []int, b float64) []Candidate {
	o := sw.o
	sw.res.CandidateUses += len(sel)
	cands := make([]Candidate, 0, len(sel))
	for _, i := range sel {
		p := cls.points[i]
		e := cls.evals[i]
		cand := Candidate{
			Point:         p,
			AnalyticMW:    o.Problem.AnalyticPower(p),
			PDR:           e.res.PDR,
			PowerMW:       float64(e.res.MaxPower),
			NLTDays:       e.res.NLTDays,
			WorstPDR:      e.res.PDR,
			WorstScenario: e.worstScenario,
			MeanLatency:   e.res.MeanLatency,
			P95Latency:    e.res.P95Latency,
		}
		cand.Feasible = cand.PDR >= b-o.Options.FeasTol
		if e.robust {
			cand.WorstPDR = e.worstPDR
			cand.Feasible = cand.Feasible && e.screenPDR >= b-o.Options.FeasTol
		}
		if sw.so.LatencyMax > 0 && cand.P95Latency > sw.so.LatencyMax {
			cand.Feasible = false
		}
		cands = append(cands, cand)
	}
	return cands
}

// updateIncumbent is Algorithm 1's line 8–10 over one class: stable sort
// by simulated power, strictly-better incumbent update.
func updateIncumbent(cands []Candidate, pMin *float64, best **Candidate) {
	sort.SliceStable(cands, func(a, b int) bool {
		return cands[a].PowerMW < cands[b].PowerMW
	})
	for i := range cands {
		c := cands[i]
		if c.Feasible && c.PowerMW < *pMin {
			*pMin = c.PowerMW
			cc := c
			*best = &cc
		}
	}
}

// markDominated flags sweep points that another point dominates in the
// (PDR, NLT, p95 latency) objective space: at least as good on every
// axis and strictly better on one. Infeasible bounds are dominated by
// definition, as is the lower-bound duplicate when adjacent bounds
// select the same design (the tighter bound subsumes it).
func markDominated(points []SweepPoint) {
	for i := range points {
		pi := &points[i]
		if pi.Best == nil {
			pi.Dominated = true
			continue
		}
		bi := pi.Best
		for j := range points {
			if j == i || points[j].Best == nil {
				continue
			}
			bj := points[j].Best
			better := bj.PDR > bi.PDR || bj.NLTDays > bi.NLTDays || bj.P95Latency < bi.P95Latency
			asGood := bj.PDR >= bi.PDR && bj.NLTDays >= bi.NLTDays && bj.P95Latency <= bi.P95Latency
			if asGood && (better || (j > i && bj.Point.Key() == bi.Point.Key())) {
				pi.Dominated = true
				break
			}
		}
	}
}
