package core

import (
	"context"
	"fmt"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/engine"
)

// TestParetoSweepMatchesFreshRuns is the acceptance property of the
// ε-constraint driver: the sweep must select exactly the per-bound optima
// that independent fresh Algorithm 1 runs select — each on an engine of
// its own, so on an empty class ledger — while the sweep's own class chain
// keeps the pivots it solves at least 5× below theirs and adjacent bounds
// share a majority of their evaluations. A second optimizer per bound on
// the sweep's engine doubles as the sharing check: it must replay every
// class, equal the fresh run and re-simulate nothing.
func TestParetoSweepMatchesFreshRuns(t *testing.T) {
	bounds := []float64{0.5, 0.56, 0.62, 0.68, 0.74, 0.8, 0.86, 0.92}
	eng, err := engine.New(0)
	if err != nil {
		t.Fatal(err)
	}

	sweep, err := ParetoSweep(context.Background(), fastProblem(0.5), SweepOptions{
		Bounds:  bounds,
		Options: Options{Engine: eng},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != len(bounds) {
		t.Fatalf("points: %d, want %d", len(sweep.Points), len(bounds))
	}
	if len(sweep.Front()) == 0 {
		t.Fatal("empty front")
	}

	engStart := eng.Stats()
	freshPivots := 0
	for i, b := range bounds {
		out := freshRun(t, fastProblem(b), Options{})
		freshPivots += out.LPIterations
		s, f := sweep.Points[i].Best, out.Best
		switch {
		case sweep.Points[i].PDRMin != b:
			t.Fatalf("point %d: bound %g, want %g", i, sweep.Points[i].PDRMin, b)
		case s == nil && f == nil:
		case s == nil || f == nil:
			t.Fatalf("bound %g: best %v sweep vs %v fresh", b, s, f)
		case s.Point != f.Point || s.PowerMW != f.PowerMW || s.PDR != f.PDR ||
			s.NLTDays != f.NLTDays || s.P95Latency != f.P95Latency:
			t.Fatalf("bound %g: best differs sweep vs fresh: %+v vs %+v", b, *s, *f)
		}
		ledgerRun(t, fmt.Sprintf("bound %g", b), fastProblem(b), Options{Engine: eng}, out)
	}

	if sweep.LPIterations <= 0 {
		t.Fatalf("sweep pivot counter empty: %d", sweep.LPIterations)
	}
	ratio := float64(freshPivots) / float64(sweep.LPIterations)
	t.Logf("pivots: %d fresh, %d sweep (%.1f×); sweep engine: %s", freshPivots, sweep.LPIterations, ratio, sweep.Engine)
	if ratio < 5 {
		t.Errorf("pivot ratio fresh/sweep = %.1f (%d/%d), want >= 5",
			ratio, freshPivots, sweep.LPIterations)
	}
	if f := sweep.Engine.FreshFrac(); f >= 0.5 {
		t.Errorf("sweep fresh fraction = %.2f (%s), want a minority", f, sweep.Engine)
	}
	// A second sweep on the engine replays every class, yet reports the
	// pivots of its own chain, not 0.
	again, err := ParetoSweep(context.Background(), fastProblem(0.5), SweepOptions{
		Bounds:  bounds,
		Options: Options{Engine: eng},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range again.Points {
		if p.LPIterations != sweep.Points[i].LPIterations {
			t.Errorf("bound %g: a ledger-warm sweep reports %d pivots, the first %d", p.PDRMin, p.LPIterations, sweep.Points[i].LPIterations)
		}
	}
	if d := eng.Stats().Sub(engStart); d.Simulated != 0 {
		t.Errorf("runs on the sweep's engine re-simulated %d evaluations", d.Simulated)
	}
}

// TestParetoSweepLatencyBound: an absurdly tight latency ε makes every
// bound infeasible; a loose one changes nothing.
func TestParetoSweepLatencyBound(t *testing.T) {
	pr := fastProblem(0.5)
	pr.Duration = 5
	// One bound is enough for the infeasible direction: with no feasible
	// incumbent the α bound never fires and the sweep pays for full MILP
	// exhaustion, so keep this branch as small as possible.
	res, err := ParetoSweep(context.Background(), pr, SweepOptions{Bounds: []float64{0.5}, LatencyMax: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Best != nil {
			t.Errorf("bound %g: expected infeasible under 1 ns latency cap, got %v", p.PDRMin, p.Best.Point)
		}
		if !p.Dominated {
			t.Errorf("bound %g: infeasible point must be dominated", p.PDRMin)
		}
	}
	pr2 := fastProblem(0.5)
	pr2.Duration = 5
	loose, err := ParetoSweep(context.Background(), pr2, SweepOptions{Bounds: []float64{0.5, 0.7}, LatencyMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range loose.Points {
		if p.Best == nil {
			t.Errorf("bound %g: expected feasible under a 10 s latency cap", p.PDRMin)
			continue
		}
		if p.Best.P95Latency <= 0 || p.Best.MeanLatency <= 0 {
			t.Errorf("bound %g: latency metrics not populated: %+v", p.PDRMin, *p.Best)
		}
	}
}

// TestParetoSweepRejectsTwoStage: the screening threshold would move
// with the swept bound, so the driver refuses the combination.
func TestParetoSweepRejectsTwoStage(t *testing.T) {
	_, err := ParetoSweep(context.Background(), fastProblem(0.5), SweepOptions{
		Bounds:  []float64{0.5, 0.7},
		Options: Options{TwoStage: true},
	})
	if err == nil {
		t.Fatal("expected an error for TwoStage + ParetoSweep")
	}
}

// TestMarkDominated pins the dominance filter on a hand-built sweep.
func TestMarkDominated(t *testing.T) {
	mk := func(pdr, nlt, lat float64, topo uint16) *Candidate {
		return &Candidate{Point: design.Point{Topology: topo}, PDR: pdr, NLTDays: nlt, P95Latency: lat}
	}
	points := []SweepPoint{
		{PDRMin: 0.5, Best: mk(0.90, 10, 0.010, 0x0b)}, // dominated: 0.7's point is better on PDR and latency, equal NLT
		{PDRMin: 0.6, Best: nil},                       // infeasible
		{PDRMin: 0.7, Best: mk(0.95, 10, 0.009, 0x2b)},
		{PDRMin: 0.8, Best: mk(0.97, 8, 0.012, 0x3b)}, // trades NLT for PDR: non-dominated
		{PDRMin: 0.9, Best: mk(0.97, 8, 0.012, 0x3b)}, // same design as 0.8: the lower bound's copy is subsumed
	}
	markDominated(points)
	want := []bool{true, true, false, true, false}
	for i, p := range points {
		if p.Dominated != want[i] {
			t.Errorf("point %d (bound %g): dominated = %v, want %v", i, p.PDRMin, p.Dominated, want[i])
		}
	}
}
