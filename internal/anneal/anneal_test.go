package anneal

import (
	"reflect"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/exhaustive"
)

func smallProblem(pdrMin float64) *design.Problem {
	pr := design.PaperProblem(pdrMin)
	pr.Duration = 15
	pr.Runs = 1
	pr.Constraints.MaxNodes = 4
	return pr
}

func TestAnnealFindsFeasibleSolution(t *testing.T) {
	out, err := New(smallProblem(0.5), Options{Steps: 120, Seed: 3}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Best == nil {
		t.Fatal("annealer found no feasible configuration at PDRmin=50%")
	}
	if !out.Best.Feasible {
		t.Error("Best marked infeasible")
	}
	if out.Best.PDR < 0.5-0.01 {
		t.Errorf("best PDR %v below the bound", out.Best.PDR)
	}
	if out.Steps != 120 {
		t.Errorf("Steps = %d, want 120", out.Steps)
	}
	if out.Evaluations == 0 || out.Evaluations > 121 {
		t.Errorf("Evaluations = %d outside (0, steps+1]", out.Evaluations)
	}
	if out.EvaluationsToBest > out.Evaluations {
		t.Errorf("EvaluationsToBest %d > Evaluations %d", out.EvaluationsToBest, out.Evaluations)
	}
}

func TestCachingBoundsEvaluations(t *testing.T) {
	// With few steps on a small space, revisits must hit the cache:
	// evaluations <= steps+1 and <= space size.
	pr := smallProblem(0.5)
	out, err := New(pr, Options{Steps: 200, Seed: 5}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Evaluations > len(pr.Points()) {
		t.Errorf("Evaluations %d exceed space size %d (cache broken)", out.Evaluations, len(pr.Points()))
	}
	if out.Simulations != out.Evaluations*pr.Runs {
		t.Errorf("Simulations = %d, want evals × runs", out.Simulations)
	}
}

// TestWarmEngineWalkMatchesFresh: a walk on an engine an exhaustive sweep
// already filled simulates nothing fresh, yet reports exactly what the
// same walk reports on a fresh engine — its counts are of the
// configurations it visited, not of the engine's fresh runs.
func TestWarmEngineWalkMatchesFresh(t *testing.T) {
	pr := smallProblem(0.5)
	pr.Runs = 2
	opts := Options{Steps: 80, Seed: 4}
	fresh, err := New(pr, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exhaustive.Search(pr, exhaustive.Options{Engine: eng}); err != nil {
		t.Fatal(err)
	}
	opts.Engine = eng
	warm, err := New(pr, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Simulated != 0 {
		t.Errorf("walk on a warm engine simulated %d configurations fresh", warm.Stats.Simulated)
	}
	if fresh.Evaluations == 0 || fresh.Simulations != fresh.Evaluations*pr.Runs {
		t.Fatalf("fresh walk: %d evaluations, %d simulations", fresh.Evaluations, fresh.Simulations)
	}
	if !reflect.DeepEqual(warm.Best, fresh.Best) || warm.Evaluations != fresh.Evaluations ||
		warm.Simulations != fresh.Simulations || warm.EvaluationsToBest != fresh.EvaluationsToBest {
		t.Errorf("warm walk: best %+v, %d evaluations, %d simulations, %d to best; fresh: %+v, %d, %d, %d",
			warm.Best, warm.Evaluations, warm.Simulations, warm.EvaluationsToBest,
			fresh.Best, fresh.Evaluations, fresh.Simulations, fresh.EvaluationsToBest)
	}
	if !reflect.DeepEqual(warm.Trace, fresh.Trace) {
		t.Error("warm walk's energy trace differs from the fresh walk's")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() *Outcome {
		out, err := New(smallProblem(0.5), Options{Steps: 60, Seed: 9}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Best.Point != b.Best.Point || a.Accepted != b.Accepted || a.Evaluations != b.Evaluations {
		t.Errorf("same seed diverged: %+v vs %+v", a.Best, b.Best)
	}
}

func TestSeedChangesWalk(t *testing.T) {
	a, err := New(smallProblem(0.5), Options{Steps: 60, Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(smallProblem(0.5), Options{Steps: 60, Seed: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Accepted == b.Accepted && a.Evaluations == b.Evaluations && len(a.Trace) == len(b.Trace) {
		same := true
		for i := range a.Trace {
			if a.Trace[i] != b.Trace[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical walks")
		}
	}
}

func TestNeighborPreservesConstraints(t *testing.T) {
	pr := smallProblem(0.5)
	a := New(pr, Options{Seed: 11})
	p := a.initialState()
	for i := 0; i < 500; i++ {
		q := a.neighbor(p)
		if !pr.Constraints.Satisfied(q.Topology) {
			t.Fatalf("neighbor %v violates topology constraints", q)
		}
		if q.TxMode < 0 || q.TxMode >= len(pr.Radio.TxModes) {
			t.Fatalf("neighbor %v has invalid tx mode", q)
		}
		p = q
	}
}

func TestNeighborActuallyMoves(t *testing.T) {
	pr := smallProblem(0.5)
	a := New(pr, Options{Seed: 13})
	p := a.initialState()
	moved := 0
	for i := 0; i < 100; i++ {
		if a.neighbor(p) != p {
			moved++
		}
	}
	if moved < 90 {
		t.Errorf("neighbor stayed put %d/100 times", 100-moved)
	}
}

func TestInvalidScheduleRejected(t *testing.T) {
	if _, err := New(smallProblem(0.5), Options{TMax: 0.001, TMin: 1}).Run(); err == nil {
		t.Error("TMax < TMin accepted")
	}
}

func TestTraceLengthMatchesSteps(t *testing.T) {
	out, err := New(smallProblem(0.5), Options{Steps: 40, Seed: 17}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Trace) != 40 {
		t.Errorf("trace length %d, want 40", len(out.Trace))
	}
}

func TestInfeasibleBoundGivesNoBest(t *testing.T) {
	pr := smallProblem(1.5)
	pr.Duration = 10
	out, err := New(pr, Options{Steps: 30, Seed: 19, FeasTol: 1e-9}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Best != nil {
		t.Errorf("Best found for unsatisfiable bound: %+v", out.Best)
	}
}
