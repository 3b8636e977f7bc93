package core

import (
	"context"
	"fmt"
	"sort"

	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/netsim"
)

// This file is the ε-constraint Pareto sweep: enumerate the
// NLT/PDR/latency trade-off front by running Algorithm 1 once per
// reliability bound PDRmin, exactly as ParetoFront does, on one
// optimizer. The engine's class ledger (classrecord.go) solves each
// power class once, at the first bound that reaches it, and replays it
// at the others; the engine's cache shares every simulation across
// bounds. On
// top of the per-bound runs the sweep adds a fixed replication gate, a
// p95 latency filter and the dominance marking.

// SweepOptions configure ParetoSweep.
type SweepOptions struct {
	// Bounds are the PDRmin values of the ε-constraint sweep, run in
	// ascending order whatever order they are given in. Empty selects
	// DefaultSweepBounds.
	Bounds []float64
	// LatencyMax, when positive, adds a second ε constraint: a candidate
	// is only feasible when its p95 end-to-end delivery latency (seconds)
	// is at or below this bound. It is enforced on the simulated metric —
	// the MILP has no latency model — so it filters candidates, not
	// power classes.
	LatencyMax float64
	// Adaptive tightens replication spending to the front: full-fidelity
	// evaluations carry a confidence gate whose band spans every swept
	// bound (plus FeasTol and a safety margin), so designs decisively
	// outside the swept reliability range stop replicating early while
	// anything near a bound keeps its full budget. The gate is fixed for
	// the whole sweep, so every bound sees the same metrics for a design.
	// As with Options.AdaptiveReps, a gated engine should not be shared
	// with non-gated users of the same fidelity.
	Adaptive bool
	// Options are the base Algorithm 1 options (engine, robust proposal,
	// pool limits, tolerances). TwoStage is rejected: its screening
	// threshold moves with the swept bound.
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
		b[i] = 0.50 + float64(0.03*float64(i))
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
	// LPIterations is the simplex pivots of the classes this bound
	// reached first within the sweep: 0 for a bound whose whole chain an
	// earlier bound walked. It counts the sweep's own chain, so it does
	// not depend on what other runs on the engine solved before.
	LPIterations int
}

// SweepResult is the outcome of one ε-constraint sweep.
type SweepResult struct {
	// Points holds one entry per swept bound, in ascending bound order.
	Points []SweepPoint
	// LPIterations totals the points' pivots: the MILP effort of the
	// whole front.
	LPIterations int
	// Engine is the engine counter delta over the sweep; its FreshFrac
	// is the fraction of submissions that needed a fresh simulation
	// (small when adjacent bounds share their evaluations).
	Engine engine.Stats
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
// reliability bounds. Cancellation is honoured at iteration granularity
// in each bound's run and at replication granularity inside the engine.
// The problem's PDRMin field is overwritten and left at the last bound.
func ParetoSweep(ctx context.Context, pr *design.Problem, so SweepOptions) (*SweepResult, error) {
	if so.Options.TwoStage {
		return nil, fmt.Errorf("core: ParetoSweep does not support TwoStage screening: the screen threshold moves with the swept bound")
	}
	bounds := append([]float64(nil), so.Bounds...)
	if len(bounds) == 0 {
		bounds = DefaultSweepBounds()
	}
	sort.Float64s(bounds)
	o := NewOptimizer(pr, so.Options)
	if so.Adaptive {
		lo, hi := bounds[0], bounds[len(bounds)-1]
		o.fullGate = &netsim.Gate{
			PDRMin: (lo + hi) / 2,
			Margin: float64((hi-lo)/2) + o.Options.FeasTol + sweepGateSlack,
		}
	}
	o.latencyMax = so.LatencyMax
	engStart := o.eng.Stats()
	outs, err := o.runBounds(ctx, bounds)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Points: make([]SweepPoint, len(bounds)), Engine: o.eng.Stats().Sub(engStart)}
	// Every bound walks a prefix of one class chain, and a run counts each
	// class at the pivots its solve cost, replayed or not. So the pivots
	// past the deepest earlier bound's are the ones this bound would have
	// solved on a chain of the sweep's own.
	reached := 0
	for i, out := range outs {
		lp := max(out.LPIterations-reached, 0)
		reached = max(reached, out.LPIterations)
		res.Points[i] = SweepPoint{PDRMin: bounds[i], Best: out.Best, LPIterations: lp}
		res.LPIterations += lp
	}
	markDominated(res.Points)
	return res, nil
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
