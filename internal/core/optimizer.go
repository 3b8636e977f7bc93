package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/fault"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
)

// Status is the outcome class of an optimization run.
type Status int

const (
	// Optimal means a feasible configuration was found and proven
	// minimal-power under the α bound / exhaustion criterion.
	Optimal Status = iota
	// Infeasible means no configuration satisfies the constraints and the
	// reliability bound.
	Infeasible
	// StatusBudgetExceeded means the iteration or wall-clock budget ran
	// out before the search terminated; Best carries the best-so-far
	// incumbent (possibly nil) without an optimality proof.
	StatusBudgetExceeded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case StatusBudgetExceeded:
		return "budget-exceeded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Candidate is one simulated design point with its measured metrics.
type Candidate struct {
	Point design.Point
	// AnalyticMW is the Eq. (9) estimate P̄ the MILP optimized.
	AnalyticMW float64
	// PDR and PowerMW are the simulated metrics (averaged over runs).
	PDR     float64
	PowerMW float64
	// NLTDays is the simulated network lifetime.
	NLTDays float64
	// Feasible reports PDR >= PDRMin − FeasTol; under robust screening it
	// additionally requires the scenario-family PDR statistic (worst case
	// or configured quantile) to clear the same bound, and in a
	// ParetoSweep with a LatencyMax the p95 latency to stay within it.
	Feasible bool
	// WorstPDR is the lowest PDR across the robust scenario family. It
	// equals PDR when robust screening is off or when the candidate was
	// already nominally infeasible (the family is then not evaluated).
	// WorstScenario labels the minimizing scenario ("" when none).
	WorstPDR      float64
	WorstScenario string
	// MeanLatency and P95Latency summarize the simulated end-to-end
	// delivery delay in seconds (mean across deliveries averaged over
	// runs; p95 is the pessimistic maximum across runs).
	MeanLatency float64
	P95Latency  float64
}

// Iteration records one RunMILP → RunSim round for reporting.
type Iteration struct {
	// PBarStar is the MILP optimum P̄* of the round.
	PBarStar float64
	// Candidates are the pool members with simulation results.
	Candidates []Candidate
	// FeasibleCount is how many met the reliability bound.
	FeasibleCount int
}

// Outcome is the result of an Algorithm 1 run.
type Outcome struct {
	Status Status
	// Best is the selected configuration (nil when infeasible).
	Best *Candidate
	// Iterations traces the search.
	Iterations []Iteration
	// Evaluations counts distinct configurations simulated; Simulations
	// counts individual simulator runs (Evaluations × Runs, minus cache
	// hits).
	Evaluations int
	Simulations int
	// ScreenedOut counts candidates rejected by the two-stage screening
	// pass without a full-fidelity evaluation (0 unless TwoStage).
	ScreenedOut int
	// SimulatedSeconds totals the simulated time across all runs — the
	// fidelity-independent cost metric (a screening run contributes
	// Duration/5, a full evaluation Duration × Runs).
	SimulatedSeconds float64
	// Engine snapshots the evaluation engine's counters over this run:
	// fresh simulations vs cache and dedup hits, and the per-fidelity
	// simulated time. With a shared engine (Options.Engine) it still
	// covers only this run's traffic.
	Engine engine.Stats
	// MILPNodes and LPIterations aggregate the solver effort of this
	// run's MILP oracle chain. MILPWarmSolves and MILPColdSolves split the
	// LP solves into warm dual-simplex re-starts vs cold tableau rebuilds.
	// A class replayed from the optimizer's class record counts here, and
	// in every MILP and presolve counter below, with the effort recorded
	// when it was solved, so all of them read the same as on a fresh
	// optimizer.
	MILPNodes      int
	LPIterations   int
	MILPWarmSolves int
	MILPColdSolves int
	// MILPRefactorizations counts sparse-basis LU rebuilds inside the
	// warm kernel (0 on the dense kernel). PresolveFixedVars,
	// PresolveDroppedRows and PresolveTightenedCoefs report the one-time
	// presolve reductions applied when the warm state was built.
	// MILPParallelDives counts the disjoint subtree dives fanned across
	// workers by pool enumeration (0 unless MILPWorkers >= 1).
	MILPRefactorizations   int
	PresolveFixedVars      int
	PresolveDroppedRows    int
	PresolveTightenedCoefs int
	MILPParallelDives      int
	// MILPStaleRedos counts warm MILP attempts thrown away and redone
	// (stale kernel, failed dive, clone fallback); MILPDiscardedPivots is
	// the simplex pivots they cost, on top of LPIterations.
	// MILPIterationCaps counts warm LP runs that stopped at their pivot
	// cap.
	MILPStaleRedos      int
	MILPDiscardedPivots int
	MILPIterationCaps   int
	// MILPReplayedClasses counts the oracle calls of this run answered
	// from the optimizer's class record instead of a fresh SolvePool (a
	// later run over the same relaxation, e.g. the second and later
	// bounds of a ParetoFront); MILPReplayedPivots is the simplex pivots
	// those calls cost when they were solved. The pivots this run
	// actually spent are LPIterations − MILPReplayedPivots. Both are 0
	// on a fresh optimizer.
	MILPReplayedClasses int
	MILPReplayedPivots  int
	// TerminatedByAlpha reports whether the α bound (line 5 of
	// Algorithm 1) stopped the search before MILP exhaustion.
	TerminatedByAlpha bool
	// RobustRejected counts candidates that cleared the nominal
	// reliability bound but were rejected by the robust scenario screen —
	// the wasted-proposal count that Robust.ProposeGamma exists to drive
	// down (0 with robust screening off).
	RobustRejected int
	// RepsSaved counts the simulator runs AdaptiveReps avoided: gated
	// replications stopped early by the confidence test plus robust
	// scenario evaluations short-circuited at family level (each credited
	// at its full replication budget). SavedSeconds is their
	// simulated-time equivalent. Both are 0 with AdaptiveReps off.
	RepsSaved    int
	SavedSeconds float64
}

// Options tune Algorithm 1.
type Options struct {
	// PoolLimit caps the MILP solution pool per iteration (0 =
	// unlimited, the paper's behaviour).
	PoolLimit int
	// MILPWorkers fans branch-and-bound pool enumeration across this many
	// subtree dive workers (0 = sequential single-tree enumeration). The
	// enumerated pool is bit-identical for every value >= 1 and equal as
	// a set to the sequential pool. Ignored under PoolLimit.
	MILPWorkers int
	// DisableAlphaBound turns off the line-5 early termination (used by
	// the ablation study; the algorithm then runs until MILP exhaustion).
	DisableAlphaBound bool
	// FeasTol relaxes the reliability check to PDR >= PDRMin − FeasTol,
	// reflecting the ±ε estimation error of finite simulations (the
	// paper sizes T_sim to keep the estimate within a tolerance ε of the
	// true probability; the default here is 0.1%, which at the paper's
	// T_sim = 600 s × 3 runs is several standard errors of the PDR
	// estimator).
	FeasTol float64
	// Engine, when non-nil, is a shared evaluation service to run all
	// simulations on; its unified (point, fidelity, scenario) cache then
	// spans every layer using it — e.g. an exhaustive sweep can warm-fill
	// the optimizer's full-fidelity entries. When nil the optimizer owns
	// a private default engine (GOMAXPROCS workers).
	Engine *engine.Engine
	// TwoStage enables a cheap screening pass before the full-fidelity
	// evaluation of each candidate: a single run at Duration/5 first,
	// and only candidates within screenMargin of the reliability bound
	// (or above it) receive the full T_sim × Runs treatment. This
	// implements the paper's observation that T_sim only needs to bound
	// the PDR estimation error relative to the decision being made:
	// clearly infeasible candidates don't need tight estimates.
	TwoStage bool
	// AdaptiveReps enables confidence-gated early stopping in the stages
	// whose evaluations only feed a binary decision. The screening pass
	// (requires TwoStage) splits its Duration/5 budget into
	// adaptiveScreenBlocks equal blocks and stops as soon as the
	// block-PDR confidence interval settles against PDRMin ± screenMargin;
	// the robust stage (requires Robust.Enabled) gates each scenario's
	// replications against PDRMin ± FeasTol and short-circuits a family
	// once enough scenarios breach the bound to pin its Quantile order
	// statistic below it. Full-fidelity nominal evaluations always keep
	// their whole budget — their metrics are the reported ones — so the
	// final optimum is driven by the same estimates as with the flag off.
	// The avoided work is surfaced in Outcome.RepsSaved/SavedSeconds (and
	// the engine's reps-saved counters). Adaptive screening changes what
	// a Screen-fidelity cache entry holds, so don't share one engine
	// between adaptive and non-adaptive optimizers.
	AdaptiveReps bool
	// MaxIterations caps the RunMILP → RunSim rounds of one Run (0 =
	// unlimited). When the cap is hit the Outcome carries the best-so-far
	// incumbent with StatusBudgetExceeded.
	MaxIterations int
	// MaxWallClock caps the wall-clock duration of one Run (0 =
	// unlimited); checked at iteration granularity, same best-so-far
	// semantics as MaxIterations.
	MaxWallClock time.Duration
	// Robust configures worst-case screening against a fault-scenario
	// family.
	Robust RobustOptions
	// CacheSalt, when nonzero, is folded into the scenario component of
	// every engine cache key this optimizer generates. Two optimizers
	// sharing one engine describe the same simulation by the same key —
	// which becomes a lie in a multi-tenant service where each tenant's
	// problem perturbs parameters the point key does not capture (body
	// scale, channel deviations, battery state, simulation horizon). A
	// per-tenant salt keeps such tenants in disjoint cache namespaces of
	// the shared engine, while identical tenants (same salt) still share
	// warm results. Zero leaves every key unchanged.
	CacheSalt uint64
	// Progress, when non-nil, receives a line per iteration.
	Progress func(format string, args ...interface{})
	// OnIteration, when non-nil, receives a structured event after each
	// completed RunMILP → RunSim round — the streaming-progress hook
	// (internal/serve emits these as NDJSON lines mid-solve). It is called
	// synchronously from the optimization loop: a slow consumer slows the
	// search, so hand off to a channel or buffer if that matters.
	OnIteration func(IterationEvent)
}

// IterationEvent is the structured per-round progress report delivered
// to Options.OnIteration.
type IterationEvent struct {
	// Iter is the 0-based round index.
	Iter int `json:"iter"`
	// PBarStar is the round's MILP optimum P̄* (mW).
	PBarStar float64 `json:"pbar_star_mw"`
	// PoolSize and FeasibleCount describe the round's candidate pool.
	PoolSize      int `json:"pool"`
	FeasibleCount int `json:"feasible"`
	// BestPowerMW is the incumbent's simulated power after the round
	// (0 while no feasible incumbent exists; real powers are positive).
	BestPowerMW float64 `json:"best_mw,omitempty"`
	// BestPoint labels the incumbent configuration ("" when none).
	BestPoint string `json:"best_point,omitempty"`
}

// RobustOptions configure the robust evaluation mode: every nominally
// feasible pool candidate is re-evaluated under a fault-scenario family
// and must also clear the reliability bound on the family's worst case
// (or a configured quantile) to stay feasible — the scenario-based robust
// design of D'Andreagiovanni et al. applied to Algorithm 1's oracle.
type RobustOptions struct {
	// Enabled turns robust screening on.
	Enabled bool
	// KFailures selects the k-node-failure family: every k-subset of a
	// candidate's locations fails at FailFrac × Duration (default 1).
	KFailures int
	// FailFrac places the hard failures as a fraction of the horizon
	// (default 0.25).
	FailFrac float64
	// IncludeCoordinator also fails the star coordinator. Off by
	// default: the paper treats the hub as the node with larger energy
	// storage (and, here, higher integrity); failing it collapses every
	// star trivially.
	IncludeCoordinator bool
	// Quantile selects the PDR order statistic the bound is enforced on:
	// 0 (default) is the strict worst case; e.g. 0.25 tolerates the worst
	// quarter of scenarios falling below the bound.
	Quantile float64
	// Scenarios, when non-empty, overrides the generated family: the same
	// explicit scenarios screen every candidate (faults at locations a
	// candidate does not use are inert).
	Scenarios []*fault.Scenario
	// PDRMin, when positive, is the reliability floor the robust
	// (worst-case / quantile) statistic is enforced against, instead of
	// Problem.PDRMin. The nominal check keeps Problem.PDRMin either way.
	// Robust floors sit necessarily below the nominal bound: with N
	// nodes and one hard failure the network PDR cannot exceed
	// (N − (1−FailFrac))/N, which is already below the paper's 0.9 for
	// every N <= 6.
	PDRMin float64
	// ProposeGamma, when positive, switches candidate generation to the
	// Γ-robust MILP relaxation (RobustCompile lowering at Γ =
	// ProposeGamma): Algorithm 1 then iterates on the protected problem,
	// proposing only designs that already survive Γ coefficient
	// deviations on paper, and the simulate-and-screen machinery above
	// demotes from gatekeeper to verifier. Setting it implies Enabled.
	ProposeGamma float64
	// Compile tunes the Γ-robust lowering (deviation magnitudes, power
	// budget) used when ProposeGamma > 0; its Gamma/PDRFloor/FailFrac
	// fields are overridden by ProposeGamma, PDRMin and FailFrac above.
	Compile RobustCompile
}

func (o Options) withDefaults() Options {
	if o.FeasTol == 0 {
		o.FeasTol = 0.001
	}
	if o.Robust.ProposeGamma > 0 {
		o.Robust.Enabled = true
	}
	if o.Robust.Enabled {
		if o.Robust.KFailures <= 0 {
			o.Robust.KFailures = 1
		}
		if o.Robust.FailFrac <= 0 {
			o.Robust.FailFrac = fault.DefaultFailFrac
		}
	}
	return o
}

// Optimizer runs Algorithm 1 over a design problem.
type Optimizer struct {
	Problem *design.Problem
	Options Options

	// eng is the evaluation service every simulation runs through. Its
	// unified (point, fidelity, scenario) cache replaces the optimizer's
	// former private caches: a configuration is never simulated twice
	// within one optimizer's lifetime (including across a ParetoFront
	// sweep), screening results live in their own fidelity namespace —
	// a point screened out at one bound may need a full evaluation at a
	// looser bound — and the robust family is simulated once per
	// (candidate, scenario) even across bound sweeps.
	eng *engine.Engine

	// evalHook, when non-nil, runs before each candidate's fresh
	// simulation (via engine.Request.Pre); tests use it to inject
	// failures and panics.
	evalHook func(design.Point)

	// fullGate, when non-nil, attaches a confidence gate to the stage-2
	// full-fidelity evaluations: replications stop early once the PDR
	// confidence interval settles decisively outside the gate's band.
	// Only the ε-constraint sweep sets this (a single-bound run keeps
	// the full budget so its reported metrics stay replication-exact);
	// the gate band must cover every bound the sweep will enforce, so a
	// gated stop can never flip a feasibility verdict.
	fullGate *netsim.Gate
	// latencyMax, when positive, is the ε-constraint sweep's p95 latency
	// bound: Run marks a candidate whose simulated p95 latency exceeds it
	// infeasible.
	latencyMax float64

	// rec is the class record of the last warm run (classrecord.go):
	// later runs over the same relaxation replay its classes instead of
	// solving them again. recMu guards the pointer; the record guards
	// its own contents.
	recMu sync.Mutex
	rec   *classRecord
}

// NewOptimizer builds an optimizer with the given options.
func NewOptimizer(pr *design.Problem, opts Options) *Optimizer {
	o := &Optimizer{Problem: pr, Options: opts.withDefaults(), eng: opts.Engine}
	if o.eng == nil {
		o.eng, _ = engine.New(0) // New only fails on negative worker counts
	}
	return o
}

// robustBound is the reliability floor the robust statistic is enforced
// against: Robust.PDRMin when set, Problem.PDRMin otherwise.
func (o *Optimizer) robustBound() float64 {
	if o.Options.Robust.PDRMin > 0 {
		return o.Options.Robust.PDRMin
	}
	return o.Problem.PDRMin
}

// robustCompile assembles the Γ-robust lowering configuration of this
// run from the robust options (zero Gamma when ProposeGamma is off, in
// which case buildRobustMILP degenerates to the nominal buildMILP).
func (o *Optimizer) robustCompile() RobustCompile {
	rc := o.Options.Robust.Compile
	rc.Gamma = o.Options.Robust.ProposeGamma
	if rc.PDRFloor <= 0 {
		rc.PDRFloor = o.robustBound()
	}
	if rc.FailFrac <= 0 {
		rc.FailFrac = o.Options.Robust.FailFrac
	}
	return rc
}

// saltKey applies Options.CacheSalt to an engine key by folding the salt
// into the scenario component (the same SplitMix64 mixing that derives
// scenario keys, so salted namespaces are as collision-resistant as the
// scenario space itself). With a zero salt the key is returned unchanged,
// preserving cross-layer cache sharing for single-tenant use.
func (o *Optimizer) saltKey(k engine.Key) engine.Key {
	if o.Options.CacheSalt != 0 {
		k.Scenario = fault.CombineKeys(o.Options.CacheSalt, k.Scenario)
	}
	return k
}

// screenSeedOffset keeps screening runs on random streams disjoint from
// the full evaluations'.
const screenSeedOffset = 7777

// screenMargin is the rejection band of the TwoStage screening pass:
// roughly 3σ of the short run's PDR estimator.
const screenMargin = 0.05

// adaptiveScreenBlocks splits the screening pass's Duration/5 budget into
// equal confidence-gated blocks under Options.AdaptiveReps. Eight blocks
// let a clear-cut candidate stop after 3–4 (saving half the budget or
// more — the t-quantile is still wide at 2 samples, so 2-block stops are
// rare); a borderline one still gets the whole thing. Fewer, longer
// blocks would cap the attainable savings: with 4 blocks the earliest
// realistic stop is block 3, saving only 25%.
const adaptiveScreenBlocks = 8

// alpha is the paper's α(S*, PDR_min) = P̄/P̄_lb correction, where P̄_lb
// is "the minimum power that a node must consume for the specified PDR
// bound". The analytic estimate P̄* assumes every packet is delivered;
// packet loss can reduce consumption, but not arbitrarily: a node's own
// transmissions happen regardless of delivery, while receptions (and, in
// a mesh, relay transmissions) scale at worst with the delivered fraction
// PDR_min. α therefore divides only the loss-sensitive share of the
// current best solution's power. The line-5 stop it drives is a
// heuristic, not a proof (DESIGN.md §6).
func (o *Optimizer) alpha(best design.Point) float64 {
	pdr := o.Problem.PDRMin
	if pdr <= 0 {
		return 1
	}
	if pdr > 1 {
		pdr = 1
	}
	pr := o.Problem
	tx := float64(pr.Radio.TxModes[best.TxMode].ConsumptionMW)
	rx := float64(pr.Radio.RxConsumptionMW)
	n := float64(best.N())
	scale := pr.RatePPS * pr.Tpkt()
	var lb float64
	if best.Routing == netsim.Star {
		// Own transmission always happens; the 2(N−1) receptions scale
		// with delivery.
		lb = float64(pr.BaselineMW) + scale*(tx+pdr*2*(n-1)*rx)
	} else {
		// The origin transmission always happens; relay transmissions
		// and all receptions scale with delivery.
		nre := float64(design.NreTx(best.N(), pr.NHops))
		lb = float64(pr.BaselineMW) + scale*(tx+pdr*((nre-1)*tx+nre*(n-1)*rx))
	}
	pbar := pr.AnalyticPower(best)
	if lb <= 0 || pbar <= lb {
		return 1
	}
	return pbar / lb
}

// relaxation builds and compiles the MILP relaxation P̃ a run iterates
// on. With Robust.ProposeGamma set it is the Γ-protected relaxation: the
// protection families are part of the warm state's matrix from the
// start, so designs that cannot survive Γ deviations never reach the
// simulator at all.
func (o *Optimizer) relaxation() (*milpModel, *linexpr.Compiled, error) {
	mm, _, err := buildRobustMILP(o.Problem, o.robustCompile())
	if err != nil {
		return nil, nil, err
	}
	return mm, mm.model.Compile(), nil
}

// Run executes Algorithm 1 and returns the outcome.
func (o *Optimizer) Run() (*Outcome, error) {
	return o.RunCtx(context.Background())
}

// RunCtx is Run under a cancellation context, checked at iteration
// granularity here and at replication granularity inside the engine: a
// cancelled caller's in-flight simulation batch stops claiming work and
// the loop exits with ctx's error instead of a best-effort Outcome.
// MILP solves are not interruptible (they are CPU-bounded and short
// relative to simulation), so cancellation latency is one MILP solve
// plus one engine sub-task.
func (o *Optimizer) RunCtx(ctx context.Context) (*Outcome, error) {
	engStart := o.eng.Stats()
	mm, work, err := o.relaxation()
	if err != nil {
		return nil, err
	}
	out := &Outcome{Status: Infeasible}
	// The MILP oracle keeps one warm solver state across iterations: the
	// pruning cuts of the Update step are ingested into its live tableau
	// instead of forcing a from-scratch tree. The state lives in the
	// optimizer's class record, so a run over a relaxation an earlier run
	// already walked replays those classes and solves only past them.
	next := o.classRecord(mm, work).oracle(o)
	pMin := math.Inf(1) // P̄_min: best simulated power of a feasible config
	progress := o.Options.Progress
	if progress == nil {
		progress = func(string, ...interface{}) {}
	}
	start := time.Now()

	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if o.Options.MaxIterations > 0 && iter >= o.Options.MaxIterations {
			progress("iter %d: iteration budget exhausted", iter)
			out.Status = StatusBudgetExceeded
			break
		}
		if o.Options.MaxWallClock > 0 && time.Since(start) >= o.Options.MaxWallClock {
			progress("iter %d: wall-clock budget exhausted (%s)", iter, o.Options.MaxWallClock)
			out.Status = StatusBudgetExceeded
			break
		}
		cls, replayed, err := next(iter)
		if err != nil {
			return nil, err
		}
		out.addSolve(&cls.agg)
		if replayed {
			out.MILPReplayedClasses++
			out.MILPReplayedPivots += cls.agg.LPIterations
		}

		if cls.exhausted {
			// Line 4/5: no further candidates. Either infeasible overall
			// or the incumbent is the proven optimum.
			progress("iter %d: MILP exhausted (%s)", iter, cls.agg.Status)
			break
		}
		pStar := cls.pStar
		if !o.Options.DisableAlphaBound && out.Best != nil && pStar/o.alpha(out.Best.Point) > pMin {
			// Line 5: even after the α correction, every remaining
			// candidate must simulate above the incumbent.
			progress("iter %d: α-bound termination (P̄*=%.4g, P̄min=%.4g)", iter, pStar, pMin)
			out.TerminatedByAlpha = true
			break
		}

		// The pool was decoded and defensively verified when it was solved.
		if cls.err != nil {
			return nil, cls.err
		}
		points := cls.points

		// Line 7: RunSim over the candidate set (parallel, cached).
		evals, stats, err := o.simulateAll(ctx, points)
		if err != nil {
			return nil, err
		}
		out.Evaluations += len(points)
		out.Simulations += stats.runs
		out.ScreenedOut += stats.screenedOut
		out.SimulatedSeconds += stats.seconds
		out.RepsSaved += stats.savedRuns
		out.SavedSeconds += stats.savedSeconds

		it := Iteration{PBarStar: pStar}
		for i, p := range points {
			e := evals[i]
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
			cand.Feasible = cand.PDR >= o.Problem.PDRMin-o.Options.FeasTol
			if e.robust {
				cand.WorstPDR = e.worstPDR
				robustOK := e.screenPDR >= o.robustBound()-o.Options.FeasTol
				if cand.Feasible && !robustOK {
					out.RobustRejected++
				}
				cand.Feasible = cand.Feasible && robustOK
			}
			if o.latencyMax > 0 && cand.P95Latency > o.latencyMax {
				cand.Feasible = false
			}
			it.Candidates = append(it.Candidates, cand)
			if cand.Feasible {
				it.FeasibleCount++
			}
		}
		// Line 8/9/10: Sort feasible candidates by simulated power and
		// update the incumbent.
		sort.SliceStable(it.Candidates, func(a, b int) bool {
			return it.Candidates[a].PowerMW < it.Candidates[b].PowerMW
		})
		for i := range it.Candidates {
			c := it.Candidates[i]
			if c.Feasible && c.PowerMW < pMin {
				pMin = c.PowerMW
				best := c
				out.Best = &best
				out.Status = Optimal
			}
		}
		out.Iterations = append(out.Iterations, it)
		progress("iter %d: P̄*=%.4g mW, pool=%d, feasible=%d, P̄min=%.4g",
			iter, pStar, len(points), it.FeasibleCount, pMin)
		if o.Options.OnIteration != nil {
			ev := IterationEvent{
				Iter: iter, PBarStar: pStar,
				PoolSize: len(points), FeasibleCount: it.FeasibleCount,
			}
			if out.Best != nil {
				ev.BestPowerMW = pMin
				ev.BestPoint = fmt.Sprintf("%v", out.Best.Point)
			}
			o.Options.OnIteration(ev)
		}
		// Line 11, Update(P̃, P̄ > P̄*), prunes the explored power class:
		// the oracle adds the cut before it solves the next round.
	}
	out.Engine = o.eng.Stats().Sub(engStart)
	return out, nil
}

// addSolve adds one oracle call's effort to the outcome's MILP counters.
func (out *Outcome) addSolve(agg *milp.Solution) {
	out.MILPNodes += agg.Nodes
	out.LPIterations += agg.LPIterations
	out.MILPWarmSolves += agg.WarmSolves
	out.MILPColdSolves += agg.ColdSolves
	out.MILPRefactorizations += agg.Refactorizations
	out.MILPParallelDives += agg.ParallelDives
	out.MILPStaleRedos += agg.StaleRedos
	out.MILPDiscardedPivots += agg.DiscardedPivots
	out.MILPIterationCaps += agg.IterationCaps
	out.PresolveFixedVars = agg.PresolveFixed
	out.PresolveDroppedRows = agg.PresolveDropped
	out.PresolveTightenedCoefs = agg.PresolveTightened
}

// simStats aggregates the cost of one simulateAll batch.
type simStats struct {
	// runs counts fresh simulator runs (screen runs included).
	runs int
	// screenedOut counts candidates the screening pass rejected.
	screenedOut int
	// seconds totals fresh simulated time.
	seconds float64
	// savedRuns and savedSeconds count the work AdaptiveReps avoided:
	// the engine's gated-replication savings plus robust scenario
	// evaluations skipped by the family short-circuit.
	savedRuns    int
	savedSeconds float64
}

// pointEval is one candidate's evaluation outcome: the nominal result
// plus, when robust screening ran, the scenario-family PDR statistics.
type pointEval struct {
	res *netsim.Result
	// robust reports whether the scenario family was evaluated (it is
	// skipped for nominally infeasible candidates — they are rejected
	// either way).
	robust bool
	// screenPDR is the statistic the bound is enforced on (the
	// Quantile-selected order statistic; equals worstPDR at quantile 0).
	// worstPDR is the strict minimum and worstScenario its label.
	screenPDR     float64
	worstPDR      float64
	worstScenario string
}

// simulateAll evaluates a candidate set through the engine in three
// batched stages — the optional two-stage screening pass, the
// full-fidelity evaluations, and the optional robust scenario families —
// and returns per-point evaluations plus the batch's fresh-simulation
// cost (measured as the engine's counter delta). Screening and robust
// decisions are made once per distinct candidate; the engine's cache and
// singleflight handle duplicates and cross-iteration reuse. Panics and
// errors inside evaluations surface as the engine's deterministic joined
// error.
func (o *Optimizer) simulateAll(ctx context.Context, points []design.Point) ([]pointEval, simStats, error) {
	var stats simStats
	engStart := o.eng.Stats()
	// skippedRuns counts the runs of the robust scenarios skipped by
	// sealed families; the engine delta contributes the replication-gate
	// savings on the runs that did start.
	var skippedRuns int
	collect := func() {
		d := o.eng.Stats().Sub(engStart)
		stats.runs = int(d.SimRuns)
		stats.seconds = d.SimSeconds()
		stats.savedRuns = int(d.RepsSaved) + skippedRuns
		stats.savedSeconds = d.SavedSeconds + float64(skippedRuns)*o.Problem.Duration
	}

	// Distinct candidates in first-appearance order.
	uniq := points[:0:0]
	idxOf := make(map[uint32][]int, len(points))
	for i, p := range points {
		k := p.Key()
		if _, seen := idxOf[k]; !seen {
			uniq = append(uniq, p)
		}
		idxOf[k] = append(idxOf[k], i)
	}

	pre := func(p design.Point) func() {
		if o.evalHook == nil {
			return nil
		}
		return func() { o.evalHook(p) }
	}

	// Stage 1 (TwoStage): cheap screening of candidates without a cached
	// full-fidelity result; for the clearly infeasible ones the short
	// estimate is final.
	screened := make(map[uint32]*netsim.Result)
	need := uniq
	if o.Options.TwoStage {
		var toScreen []design.Point
		for _, p := range uniq {
			if !o.eng.Cached(o.saltKey(engine.PointKey(p.Key()))) {
				toScreen = append(toScreen, p)
			}
		}
		reqs := make([]engine.Request, len(toScreen))
		for i, p := range toScreen {
			cfg := o.Problem.Config(p)
			cfg.Duration /= 5
			reqs[i] = engine.Request{
				Cfg: cfg, Runs: 1, Seed: o.Problem.Seed + screenSeedOffset,
				Key: o.saltKey(engine.ScreenKey(p.Key())), Label: fmt.Sprintf("%v", p), Pre: pre(p),
			}
			if o.Options.AdaptiveReps {
				// Same Duration/5 worst-case budget, split into equal
				// blocks the confidence gate can cut short. Screening runs
				// are fault-free, so shortening the horizon is safe (fault
				// times scale with Duration and would move otherwise). The
				// 90% gate confidence is deliberate: the exhaustive screen
				// decides from a raw point estimate with no confidence
				// test at all, so any gated stop is more protective, and
				// the looser quantile lets clear-cut candidates stop
				// blocks earlier.
				reqs[i].Cfg.Duration /= adaptiveScreenBlocks
				reqs[i].Runs = adaptiveScreenBlocks
				reqs[i].Adaptive = &netsim.Gate{
					PDRMin: o.Problem.PDRMin, Margin: screenMargin,
					Confidence: 0.9,
				}
			}
		}
		srs, err := o.eng.EvaluateBatchCtx(ctx, reqs, nil)
		if err != nil {
			collect()
			return nil, stats, err
		}
		for i, p := range toScreen {
			if srs[i].PDR < o.Problem.PDRMin-screenMargin {
				screened[p.Key()] = srs[i]
				stats.screenedOut++
			}
		}
		need = nil
		for _, p := range uniq {
			if _, out := screened[p.Key()]; !out {
				need = append(need, p)
			}
		}
	}

	// Stage 2: full-fidelity evaluation of the surviving candidates.
	reqs := make([]engine.Request, len(need))
	for i, p := range need {
		reqs[i] = engine.Request{
			Cfg: o.Problem.Config(p), Runs: o.Problem.Runs, Seed: o.Problem.Seed,
			Key: o.saltKey(engine.PointKey(p.Key())), Label: fmt.Sprintf("%v", p), Pre: pre(p),
		}
		if o.fullGate != nil {
			reqs[i].Adaptive = o.fullGate
		}
	}
	frs, err := o.eng.EvaluateBatchCtx(ctx, reqs, nil)
	if err != nil {
		collect()
		return nil, stats, err
	}
	full := make(map[uint32]*netsim.Result, len(need))
	for i, p := range need {
		full[p.Key()] = frs[i]
	}

	// Stage 3: the robust scenario families. Only nominally feasible
	// candidates face the adversary: the others are rejected either way,
	// and the family costs |scenarios| full-fidelity evaluations each.
	// The feasibility statistic is recomputed per call from the (cached)
	// family results — the bound may have changed across a ParetoFront
	// sweep. With AdaptiveReps each scenario's replications are gated
	// against the robust bound ± FeasTol, and a family is sealed once its
	// breaches exceed what the Quantile order statistic tolerates: the
	// verdict is then infeasible whatever the remaining scenarios measure,
	// so they are skipped (credited to the savings counters at their full
	// replication budget).
	robust := make(map[uint32]pointEval)
	if o.Options.Robust.Enabled {
		var cands []design.Point
		var fams []engine.Family
		for _, p := range need {
			nominal := full[p.Key()]
			if nominal.PDR < o.Problem.PDRMin-o.Options.FeasTol {
				continue
			}
			scenarios := o.scenariosFor(p)
			fam := engine.Family{Nominal: nominal, Tolerate: o.quantileIndex(len(scenarios))}
			for _, sc := range scenarios {
				cfg := o.Problem.Config(p)
				cfg.Scenario = sc
				fam.Reqs = append(fam.Reqs, engine.Request{
					Cfg: cfg, Runs: o.Problem.Runs, Seed: o.Problem.Seed,
					Key:   o.saltKey(engine.ScenarioKey(p.Key(), sc.Key())),
					Label: fmt.Sprintf("%v under %s", p, sc.Label()), Pre: pre(p),
				})
			}
			cands = append(cands, p)
			fams = append(fams, fam)
		}
		var gate *netsim.Gate
		if o.Options.AdaptiveReps {
			gate = &netsim.Gate{PDRMin: o.robustBound(), Margin: o.Options.FeasTol}
		}
		rrs, skipped, err := o.eng.EvaluateFamilies(ctx, fams, gate)
		if err != nil {
			collect()
			return nil, stats, err
		}
		skippedRuns = skipped * max(1, o.Problem.Runs)
		for i, p := range cands {
			robust[p.Key()] = o.robustEval(rrs[i], len(fams[i].Reqs))
		}
	}

	// Fan the per-candidate outcomes back to every submitted index.
	evals := make([]pointEval, len(points))
	for _, p := range uniq {
		k := p.Key()
		var pe pointEval
		if sr, isOut := screened[k]; isOut {
			pe = pointEval{res: sr}
		} else {
			pe = pointEval{res: full[k]}
			if rpe, ok := robust[k]; ok {
				pe = rpe
			}
		}
		for _, i := range idxOf[k] {
			evals[i] = pe
		}
	}
	collect()
	return evals, stats, nil
}

// quantileIndex is the order-statistic index the Quantile bound is
// enforced on over an n-scenario family — equivalently, the number of
// breaching scenarios the family tolerates before its verdict is sealed.
func (o *Optimizer) quantileIndex(n int) int {
	idx := int(math.Floor(o.Options.Robust.Quantile * float64(n)))
	if idx >= n {
		idx = n - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

// robustEval reduces one candidate's family envelope (seeded with its
// nominal result) over an n-scenario family to the candidate's robust
// evaluation. The bound is enforced on the Quantile order statistic of
// the evaluated scenario PDRs at quantileIndex(n) — for a family sealed
// after a prefix, clamped to the prefix, where the breach count already
// pins it below the bound. An empty family reports the nominal PDR.
func (o *Optimizer) robustEval(rr *netsim.RobustResult, n int) pointEval {
	pe := pointEval{res: rr.Nominal, robust: true, screenPDR: rr.WorstPDR,
		worstPDR: rr.WorstPDR, worstScenario: rr.WorstScenario}
	if len(rr.Scenarios) > 0 {
		pdrs := make([]float64, len(rr.Scenarios))
		for i, m := range rr.Scenarios {
			pdrs[i] = m.PDR
		}
		sort.Float64s(pdrs)
		pe.screenPDR = pdrs[min(o.quantileIndex(n), len(pdrs)-1)]
	}
	return pe
}

// scenariosFor returns the fault-scenario family a candidate is screened
// against: the explicit override when configured, otherwise the
// k-node-failure family over the candidate's own locations (coordinator
// excluded for stars unless IncludeCoordinator).
func (o *Optimizer) scenariosFor(p design.Point) []*fault.Scenario {
	ro := o.Options.Robust
	if len(ro.Scenarios) > 0 {
		return ro.Scenarios
	}
	exclude := -1
	if p.Routing == netsim.Star && !ro.IncludeCoordinator {
		exclude = o.Problem.Config(p).CoordinatorLoc
	}
	g := fault.ScenarioGen{Seed: o.Problem.Seed, FailFrac: ro.FailFrac}
	return g.KNodeFailures(p.Locations(), exclude, ro.KFailures, o.Problem.Duration)
}

// ParetoPoint is one point of the reliability–lifetime trade-off front.
type ParetoPoint struct {
	// PDRMin is the reliability bound this point was optimized for.
	PDRMin float64
	// Best is the optimal configuration (nil when the bound is
	// infeasible).
	Best *Candidate
	// Outcome carries the full search record.
	Outcome *Outcome
}

// ParetoFront runs Algorithm 1 across a sweep of reliability bounds and
// returns the resulting lifetime-versus-reliability trade-off curve (the
// arrows of the paper's Fig. 3). All runs share one optimizer, and with
// it one simulation cache — a configuration's simulated metrics do not
// depend on PDRMin — and one class record: the relaxation P̃ does not
// depend on PDRMin either (unless a Γ proposal's robust floor follows
// it), so each power class is solved once, at the first bound that
// reaches it, and replayed at the others. Every bound's Outcome is still
// bit-identical to an independent run's; its MILPReplayedClasses and
// MILPReplayedPivots say how much of its chain came from the record.
//
// The problem's PDRMin field is overwritten during the sweep and left at
// the last bound.
func ParetoFront(pr *design.Problem, bounds []float64, opts Options) ([]ParetoPoint, error) {
	if len(bounds) == 0 {
		bounds = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}
	}
	outs, err := NewOptimizer(pr, opts).runBounds(context.Background(), bounds)
	if err != nil {
		return nil, err
	}
	front := make([]ParetoPoint, len(bounds))
	for i, out := range outs {
		front[i] = ParetoPoint{PDRMin: bounds[i], Best: out.Best, Outcome: out}
	}
	return front, nil
}

// runBounds is the multi-bound Algorithm 1 loop of ParetoFront and
// ParetoSweep: one run per bound, in the given order, on this optimizer.
func (o *Optimizer) runBounds(ctx context.Context, bounds []float64) ([]*Outcome, error) {
	outs := make([]*Outcome, len(bounds))
	for i, b := range bounds {
		o.Problem.PDRMin = b
		out, err := o.RunCtx(ctx)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

// WriteRelaxationLP renders the MILP relaxation P̃ of a problem in CPLEX
// LP file format, for cross-checking against external solvers.
func WriteRelaxationLP(pr *design.Problem, w io.Writer) error {
	mm, err := buildMILP(pr)
	if err != nil {
		return err
	}
	return mm.model.Compile().WriteLP(w)
}

// CompileMILP lowers a problem to its compiled MILP relaxation P̃ and
// returns it with the Eq. (9) objective expression — the pair needed to
// drive the raw Algorithm 1 oracle loop (SolvePool, then prune with
// AddExprRow(objective ≥ P̄* + ε)) outside the optimizer, e.g. from the
// MILP benchmarks. An optional RobustCompile switches to the Γ-protected
// lowering (with Gamma == 0 the output is bit-identical to the nominal
// compilation); use CompileMILPRobust to also get the retarget handle.
func CompileMILP(pr *design.Problem, robust ...RobustCompile) (*linexpr.Compiled, linexpr.Expr, error) {
	var rc RobustCompile
	if len(robust) > 0 {
		rc = robust[0]
	}
	mm, _, err := buildRobustMILP(pr, rc)
	if err != nil {
		return nil, linexpr.Expr{}, err
	}
	return mm.model.Compile(), mm.objective, nil
}

// FirstPool returns the decoded MILP solution pool of Algorithm 1's first
// iteration — the cheapest power class of the relaxed problem P̃ — without
// running any simulations. It is useful for inspecting what the candidate
// generator proposes and for benchmarking the MILP oracle in isolation.
func FirstPool(pr *design.Problem) ([]design.Point, error) {
	mm, err := buildMILP(pr)
	if err != nil {
		return nil, err
	}
	pool, agg, err := milp.NewState(mm.model.Compile(), milp.Options{}).SolvePool(0, 1e-6)
	if err != nil {
		return nil, err
	}
	if agg.Status != milp.Optimal {
		return nil, nil
	}
	points := make([]design.Point, len(pool))
	for i, ps := range pool {
		points[i] = mm.decode(ps.X)
	}
	return points, nil
}
