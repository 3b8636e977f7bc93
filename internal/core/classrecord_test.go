package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"hiopt/internal/body"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/phys"
	"hiopt/internal/rng"
)

// recordProblem is the paper problem at the perfbench front's fidelity (5 s
// horizon, one run), where every bound up to 0.83 stops within three
// rounds.
func recordProblem(pdrMin float64) *design.Problem {
	pr := design.PaperProblem(pdrMin)
	pr.Duration = 5
	pr.Runs = 1
	return pr
}

// tenantProblem is recordProblem with a seeded body scale and NLoS
// shadowing offset: neither enters the MILP relaxation, but both move
// every simulated metric.
func tenantProblem(seed uint64) func(float64) *design.Problem {
	r := rng.NewSource(seed).Stream("tenant")
	scale := r.Uniform(0.8, 1.2)
	shadow := r.Uniform(0, 6)
	return func(pdrMin float64) *design.Problem {
		pr := recordProblem(pdrMin)
		pr.Channel.NLoSPenalty += phys.DB(shadow)
		locs := body.Default()
		for i := range locs {
			locs[i].X *= scale
			locs[i].Y *= scale
			locs[i].Z *= scale
		}
		pr.BodyLocations = locs
		return pr
	}
}

// milpCounters lists every MILP and presolve counter of an outcome except
// the replay counters, in a comparable form.
func milpCounters(o *Outcome) [12]int {
	return [12]int{o.MILPNodes, o.LPIterations, o.MILPWarmSolves, o.MILPColdSolves,
		o.MILPRefactorizations, o.PresolveFixedVars, o.PresolveDroppedRows, o.PresolveTightenedCoefs,
		o.MILPParallelDives, o.MILPStaleRedos, o.MILPDiscardedPivots, o.MILPIterationCaps}
}

// sameOutcome requires got to equal want bit for bit in everything a
// fresh run determines: status, each round's P̄* bits and candidates in
// order, the incumbent, the evaluation count and every MILP counter.
func sameOutcome(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	if got.Status != want.Status || got.TerminatedByAlpha != want.TerminatedByAlpha {
		t.Fatalf("%s: status %v (α %v), fresh %v (α %v)", label, got.Status, got.TerminatedByAlpha, want.Status, want.TerminatedByAlpha)
	}
	if len(got.Iterations) != len(want.Iterations) {
		t.Fatalf("%s: %d rounds, fresh %d", label, len(got.Iterations), len(want.Iterations))
	}
	for i, it := range got.Iterations {
		w := want.Iterations[i]
		if math.Float64bits(it.PBarStar) != math.Float64bits(w.PBarStar) {
			t.Fatalf("%s round %d: P̄* %v, fresh %v", label, i, it.PBarStar, w.PBarStar)
		}
		if !reflect.DeepEqual(it, w) {
			t.Fatalf("%s round %d: candidates differ from the fresh run's", label, i)
		}
	}
	if !reflect.DeepEqual(got.Best, want.Best) || got.Evaluations != want.Evaluations {
		t.Fatalf("%s: best %v (%d evaluations), fresh %v (%d)", label, got.Best, got.Evaluations, want.Best, want.Evaluations)
	}
	if g, w := milpCounters(got), milpCounters(want); g != w {
		t.Fatalf("%s: MILP counters %v, fresh %v", label, g, w)
	}
}

// freshRun runs a new optimizer on an engine of its own — so on an empty
// class ledger — and checks it replayed nothing.
func freshRun(t *testing.T, pr *design.Problem, opts Options) *Outcome {
	t.Helper()
	eng, err := engine.New(0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = eng
	out, err := NewOptimizer(pr, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.MILPReplayedClasses != 0 || out.MILPReplayedPivots != 0 {
		t.Fatalf("fresh optimizer replayed %d classes (%d pivots)", out.MILPReplayedClasses, out.MILPReplayedPivots)
	}
	return out
}

// ledgerRun runs a new optimizer on the engine of opts, whose class
// ledger already holds pr's whole chain, and checks it replayed every
// class and equals want.
func ledgerRun(t *testing.T, label string, pr *design.Problem, opts Options, want *Outcome) {
	t.Helper()
	out, err := NewOptimizer(pr, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.MILPClasses == 0 || out.MILPReplayedClasses != out.MILPClasses || out.MILPReplayedPivots != out.LPIterations {
		t.Fatalf("%s: a second optimizer on the shared engine replayed %d of %d classes (%d of %d pivots)",
			label, out.MILPReplayedClasses, out.MILPClasses, out.MILPReplayedPivots, out.LPIterations)
	}
	sameOutcome(t, label+"/ledger", out, want)
}

// TestParetoFrontMatchesFreshRuns: a ParetoFront replays Algorithm 1's
// classes across bounds from one class record, and every bound must
// still equal a fresh optimizer's run bit for bit — on the paper problem
// and on seeded body-scale and shadowing variants, under each option
// that shapes the oracle's pools or pivot path. The front solves each
// class once: the pivots it spends are exactly its deepest bound's.
func TestParetoFrontMatchesFreshRuns(t *testing.T) {
	bounds := []float64{0.5, 0.62, 0.74, 0.82}
	cases := []struct {
		name string
		mk   func(float64) *design.Problem
		opt  Options
	}{
		{"paper", recordProblem, Options{}},
		{"paper/workers2", recordProblem, Options{MILPWorkers: 2}},
		{"paper/pool8", recordProblem, Options{PoolLimit: 8}},
		{"tenant1", tenantProblem(1), Options{}},
		{"tenant2", tenantProblem(2), Options{}},
		{"tenant3/workers2", tenantProblem(3), Options{MILPWorkers: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, err := engine.New(0)
			if err != nil {
				t.Fatal(err)
			}
			opts := c.opt
			opts.Engine = eng
			front, err := ParetoFront(c.mk(bounds[0]), bounds, opts)
			if err != nil {
				t.Fatal(err)
			}
			replayed, spent, deepest := 0, 0, 0
			for k, b := range bounds {
				got := front[k].Outcome
				want := freshRun(t, c.mk(b), opts)
				sameOutcome(t, c.name, got, want)
				ledgerRun(t, c.name, c.mk(b), opts, want)
				replayed += got.MILPReplayedClasses
				spent += got.LPIterations - got.MILPReplayedPivots
				deepest = max(deepest, got.LPIterations)
			}
			if front[0].Outcome.MILPReplayedClasses != 0 {
				t.Errorf("first bound replayed %d classes from an empty record", front[0].Outcome.MILPReplayedClasses)
			}
			if replayed < len(bounds)-1 {
				t.Errorf("%d replayed classes over %d bounds: the record was not reused", replayed, len(bounds))
			}
			if spent != deepest {
				t.Errorf("front spent %d pivots, its deepest bound's chain costs %d", spent, deepest)
			}
		})
	}
}

// TestClassRecordInvalidation: a run whose relaxation or pool-shaping
// options differ from the record's must solve from scratch (0 replays)
// and match a fresh optimizer; the next run with the same inputs replays
// again (the positive control).
func TestClassRecordInvalidation(t *testing.T) {
	eng, err := engine.New(0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(o *Optimizer) *Outcome {
		t.Helper()
		out, err := o.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// warmed returns an optimizer whose record holds a chain of at least
	// two rounds, so later classes follow a prune cut.
	warmed := func() *Optimizer {
		o := NewOptimizer(recordProblem(0.82), Options{Engine: eng})
		if out := run(o); len(out.Iterations) < 2 {
			t.Fatalf("premise: %d rounds, want >= 2", len(out.Iterations))
		}
		return o
	}

	t.Run("constraints", func(t *testing.T) {
		o := warmed()
		o.Problem.Constraints.MaxNodes = 5
		got := run(o)
		if got.MILPReplayedClasses != 0 {
			t.Fatalf("mutated constraints replayed %d classes", got.MILPReplayedClasses)
		}
		pr := recordProblem(0.82)
		pr.Constraints.MaxNodes = 5
		want := freshRun(t, pr, Options{})
		sameOutcome(t, "constraints", got, want)
		ledgerRun(t, "constraints", pr, Options{Engine: eng}, want)
		if again := run(o); again.MILPReplayedClasses == 0 {
			t.Fatal("an unchanged rerun replayed nothing")
		}
	})

	t.Run("milp-workers", func(t *testing.T) {
		// Parallel dives enumerate the same pools by another pivot path,
		// so a run with them must not replay the sequential record.
		o := warmed()
		o.Options.MILPWorkers = 2
		got := run(o)
		if got.MILPReplayedClasses != 0 {
			t.Fatalf("a new dive worker count replayed %d classes", got.MILPReplayedClasses)
		}
		want := freshRun(t, recordProblem(0.82), Options{MILPWorkers: 2})
		sameOutcome(t, "milp-workers", got, want)
		ledgerRun(t, "milp-workers", recordProblem(0.82), Options{Engine: eng, MILPWorkers: 2}, want)
		if again := run(o); again.MILPReplayedClasses == 0 {
			t.Fatal("an unchanged rerun replayed nothing")
		}
	})
}

// TestClassRecordGammaFloorFollowsBound: with Robust.ProposeGamma and no
// robust floor of its own, the Γ relaxation's availability row targets
// each bound, so every bound has its own arena and a front replays
// nothing — yet each bound matches a fresh run. Pinning the robust floor
// makes the arena bound-independent, and the front replays again.
func TestClassRecordGammaFloorFollowsBound(t *testing.T) {
	bounds := []float64{0.6, 0.7}
	for _, pinned := range []bool{false, true} {
		eng, err := engine.New(0)
		if err != nil {
			t.Fatal(err)
		}
		pr := func(pdr float64) *design.Problem {
			p := recordProblem(pdr)
			p.Duration = 2
			return p
		}
		opts := Options{Engine: eng, MaxIterations: 1, Robust: RobustOptions{ProposeGamma: 1}}
		if pinned {
			opts.Robust.PDRMin = 0.6
		}
		front, err := ParetoFront(pr(bounds[0]), bounds, opts)
		if err != nil {
			t.Fatal(err)
		}
		replayed := 0
		for k, b := range bounds {
			got := front[k].Outcome
			want := freshRun(t, pr(b), opts)
			sameOutcome(t, "gamma", got, want)
			ledgerRun(t, "gamma", pr(b), opts, want)
			replayed += got.MILPReplayedClasses
		}
		if !pinned && replayed != 0 {
			t.Errorf("floor follows the bound: %d classes replayed across distinct arenas", replayed)
		}
		if pinned && replayed == 0 {
			t.Error("pinned robust floor: the bound-independent arena replayed nothing")
		}
	}
}

// TestClassRecordConcurrentRuns: two runs racing on one optimizer share
// its record — each class is solved by exactly one of them — and both
// equal a fresh run. make race runs this under the race detector.
func TestClassRecordConcurrentRuns(t *testing.T) {
	eng, err := engine.New(0)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizer(recordProblem(0.82), Options{Engine: eng})
	var outs [2]*Outcome
	var errs [2]error
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = o.Run()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := freshRun(t, recordProblem(0.82), Options{})
	for _, out := range outs {
		sameOutcome(t, "concurrent", out, want)
	}
	ledgerRun(t, "concurrent", recordProblem(0.82), Options{Engine: eng}, want)
	// Every round of this chain, and its α-terminating call, went through
	// the oracle once per run.
	calls := len(want.Iterations)
	if want.TerminatedByAlpha {
		calls++
	}
	if n := outs[0].MILPReplayedClasses + outs[1].MILPReplayedClasses; n != calls {
		t.Errorf("%d classes replayed across both runs, want %d (each of %d calls solved once)", n, calls, calls)
	}
}
