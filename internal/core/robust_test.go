package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"hiopt/internal/body"
	"hiopt/internal/design"
	"hiopt/internal/fault"
	"hiopt/internal/netsim"
)

// blackoutScenario shadows every location pair from t=1 on: senders keep
// generating but nothing is delivered, so no candidate can survive it and
// robust screening must reject the whole design space. (Failing the nodes
// instead would not work: a dead node stops sending too, and the Eq. (6)
// PDR is a ratio over sent packets.)
func blackoutScenario() *fault.Scenario {
	sc := &fault.Scenario{Name: "blackout"}
	for a := 0; a < body.NumLocations; a++ {
		for b := a + 1; b < body.NumLocations; b++ {
			sc.Links = append(sc.Links, fault.LinkOutage{LocA: a, LocB: b, Start: 1, End: 1e6})
		}
	}
	return sc
}

// TestEvalHookPanicBecomesError: a panicking evaluation must terminate
// Run with an error mentioning the panic — not hang the worker pool or
// crash the process.
func TestEvalHookPanicBecomesError(t *testing.T) {
	pr := fastProblem(0.9)
	o := NewOptimizer(pr, Options{})
	o.evalHook = func(p design.Point) { panic("injected failure") }
	done := make(chan struct{})
	var err error
	go func() {
		_, err = o.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Run hung after a worker panic")
	}
	if err == nil {
		t.Fatal("Run succeeded despite panicking evaluations")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("error does not describe the panic: %v", err)
	}
}

// TestEvalHookSinglePanicIsDeterministic: when one specific candidate
// panics, the reported error must name it identically across runs.
func TestEvalHookSinglePanicIsDeterministic(t *testing.T) {
	pr := fastProblem(0.9)
	points, err := FirstPool(pr)
	if err != nil {
		t.Fatal(err)
	}
	victim := points[0]
	msg := func() string {
		o := NewOptimizer(fastProblem(0.9), Options{})
		o.evalHook = func(p design.Point) {
			if p == victim {
				panic("boom")
			}
		}
		_, err := o.Run()
		if err == nil {
			t.Fatal("Run succeeded despite the panicking candidate")
		}
		return err.Error()
	}
	if a, b := msg(), msg(); a != b {
		t.Fatalf("error message depends on scheduling:\n a: %s\n b: %s", a, b)
	}
}

// TestMaxIterationsBudget: a one-iteration cap must stop the search with
// StatusBudgetExceeded after exactly one RunMILP → RunSim round.
func TestMaxIterationsBudget(t *testing.T) {
	out, err := NewOptimizer(fastProblem(0.9), Options{MaxIterations: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusBudgetExceeded {
		t.Fatalf("status = %v, want %v", out.Status, StatusBudgetExceeded)
	}
	if len(out.Iterations) != 1 {
		t.Fatalf("ran %d iterations under a 1-iteration budget", len(out.Iterations))
	}
}

// TestMaxWallClockBudget: an already-expired wall-clock budget must
// return immediately with no iterations and no incumbent.
func TestMaxWallClockBudget(t *testing.T) {
	out, err := NewOptimizer(fastProblem(0.9), Options{MaxWallClock: time.Nanosecond}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusBudgetExceeded {
		t.Fatalf("status = %v, want %v", out.Status, StatusBudgetExceeded)
	}
	if len(out.Iterations) != 0 || out.Best != nil {
		t.Fatalf("expired budget still ran work: %d iterations, best %v", len(out.Iterations), out.Best)
	}
}

func TestBudgetStatusString(t *testing.T) {
	if got := StatusBudgetExceeded.String(); got != "budget-exceeded" {
		t.Fatalf("StatusBudgetExceeded.String() = %q", got)
	}
}

// TestRobustScreeningRejectsNominalOptimum: under an unsurvivable
// explicit scenario the robust search must reject every candidate the
// nominal search accepts, and every nominally feasible candidate must be
// marked robust-infeasible with its WorstPDR below the bound. The robust
// run is capped at a few iterations — with nothing feasible it would
// otherwise exhaust the whole design space.
func TestRobustScreeningRejectsNominalOptimum(t *testing.T) {
	pdrMin := 0.6
	nom, err := NewOptimizer(fastProblem(pdrMin), Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if nom.Best == nil {
		t.Fatalf("nominal search found no optimum at PDRmin=%v", pdrMin)
	}
	rob, err := NewOptimizer(fastProblem(pdrMin), Options{
		MaxIterations: 3,
		Robust:        RobustOptions{Enabled: true, Scenarios: []*fault.Scenario{blackoutScenario()}},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rob.Best != nil || rob.Status == Optimal {
		t.Fatalf("blackout scenario left a feasible design: status %v, best %+v", rob.Status, rob.Best)
	}
	sawScreened := false
	for _, it := range rob.Iterations {
		for _, c := range it.Candidates {
			if c.PDR >= pdrMin-0.001 {
				sawScreened = true
				if c.Feasible {
					t.Fatalf("candidate %v feasible despite blackout worst case (WorstPDR %v)", c.Point, c.WorstPDR)
				}
				if c.WorstPDR >= c.PDR {
					t.Fatalf("candidate %v: WorstPDR %v not below nominal %v", c.Point, c.WorstPDR, c.PDR)
				}
				if c.WorstScenario != "blackout" {
					t.Fatalf("candidate %v: WorstScenario %q, want blackout", c.Point, c.WorstScenario)
				}
			}
		}
	}
	if !sawScreened {
		t.Fatal("no nominally feasible candidate passed through robust screening")
	}
}

// TestRobustOptimumNoCheaperThanNominal: robust feasibility is a subset
// of nominal feasibility, so the robust optimum can never draw less
// power than the nominal one.
func TestRobustOptimumNoCheaperThanNominal(t *testing.T) {
	pdrMin := 0.5
	nom, err := NewOptimizer(fastProblem(pdrMin), Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	rob, err := NewOptimizer(fastProblem(pdrMin), Options{
		Robust: RobustOptions{Enabled: true, KFailures: 1},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if nom.Best == nil {
		t.Fatalf("nominal search found no optimum at PDRmin=%v", pdrMin)
	}
	if rob.Best != nil {
		if rob.Best.PowerMW < nom.Best.PowerMW {
			t.Fatalf("robust optimum (%v mW) cheaper than nominal (%v mW)",
				rob.Best.PowerMW, nom.Best.PowerMW)
		}
		if rob.Best.WorstPDR >= rob.Best.PDR+1e-9 {
			t.Fatalf("robust best: WorstPDR %v above nominal PDR %v", rob.Best.WorstPDR, rob.Best.PDR)
		}
		if rob.Best.WorstPDR < pdrMin-0.001 {
			t.Fatalf("robust best violates the bound in the worst case: %v", rob.Best.WorstPDR)
		}
	}
}

// TestScenariosForFamily: the generated family covers each non-excluded
// location once at k=1, excluding the star coordinator by default and
// including it on request.
func TestScenariosForFamily(t *testing.T) {
	pr := fastProblem(0.9)
	o := NewOptimizer(pr, Options{Robust: RobustOptions{Enabled: true}})
	points, err := FirstPool(pr)
	if err != nil {
		t.Fatal(err)
	}
	var star *design.Point
	for i := range points {
		if points[i].Routing == netsim.Star {
			star = &points[i]
			break
		}
	}
	if star == nil {
		t.Skip("first pool has no star candidate")
	}
	fam := o.scenariosFor(*star)
	coord := pr.Config(*star).CoordinatorLoc
	if len(fam) != star.N()-1 {
		t.Fatalf("star k=1 family has %d scenarios, want N-1 = %d", len(fam), star.N()-1)
	}
	for _, sc := range fam {
		if sc.Failures[0].Location == coord {
			t.Fatal("coordinator appears in the default star family")
		}
	}
	o2 := NewOptimizer(pr, Options{Robust: RobustOptions{Enabled: true, IncludeCoordinator: true}})
	if fam2 := o2.scenariosFor(*star); len(fam2) != star.N() {
		t.Fatalf("IncludeCoordinator family has %d scenarios, want N = %d", len(fam2), star.N())
	}
}

// TestScenarioCacheAvoidsResimulation: a candidate's scenario family is
// simulated once; repeating the robust evaluation costs zero fresh runs
// even across a changed reliability bound.
func TestScenarioCacheAvoidsResimulation(t *testing.T) {
	// A low bound so the first-pool candidate is nominally feasible and
	// its scenario family is actually evaluated.
	pr := fastProblem(0.2)
	o := NewOptimizer(pr, Options{Robust: RobustOptions{Enabled: true}})
	points, err := FirstPool(pr)
	if err != nil {
		t.Fatal(err)
	}
	pts := points[:1]
	first, stats1, err := o.simulateAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if !first[0].robust {
		t.Fatalf("candidate %v was not robust-evaluated (PDR %v)", pts[0], first[0].res.PDR)
	}
	if stats1.runs <= max(1, o.Problem.Runs) {
		t.Fatalf("first robust evaluation ran only %d runs; no scenario family evaluated", stats1.runs)
	}
	o.Problem.PDRMin = 0.3 // a bound sweep must not invalidate the scenario cache
	second, stats2, err := o.simulateAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.runs != 0 {
		t.Fatalf("repeat robust evaluation ran %d fresh simulations", stats2.runs)
	}
	if first[0].screenPDR != second[0].screenPDR ||
		first[0].worstPDR != second[0].worstPDR ||
		first[0].worstScenario != second[0].worstScenario {
		t.Fatalf("cached robust stats diverged: %+v vs %+v", first[0], second[0])
	}
}

// TestRobustStageMatchesSequential: the robust stage's family call with
// no gate reduces, candidate by candidate, to exactly what the sequential
// Evaluator.EvaluateRobust gives under the same reduction — the nominal
// result, the Quantile order statistic, the worst PDR and its scenario —
// over replicated runs and a non-trivial quantile.
func TestRobustStageMatchesSequential(t *testing.T) {
	pr := fastProblem(0.2)
	pr.Runs = 2
	o := NewOptimizer(pr, Options{Robust: RobustOptions{Enabled: true, Quantile: 0.5}})
	points, err := FirstPool(pr)
	if err != nil {
		t.Fatal(err)
	}
	pts := points[:min(4, len(points))]
	evals, _, err := o.simulateAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, p := range pts {
		if !evals[i].robust {
			continue
		}
		scenarios := o.scenariosFor(p)
		rr, err := netsim.NewEvaluator().EvaluateRobust(pr.Config(p), pr.Runs, pr.Seed, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.robustEval(rr, len(scenarios)); !reflect.DeepEqual(evals[i], want) {
			t.Fatalf("candidate %v: robust stage %+v, sequential %+v", p, evals[i], want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no candidate reached the robust stage — test premise broken")
	}
}
