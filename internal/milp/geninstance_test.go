package milp

import (
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"hiopt/internal/lp"
)

// TestGenInstanceDeterministic: same (M, seed) must reproduce the exact
// problem, different seeds must not.
func TestGenInstanceDeterministic(t *testing.T) {
	a, b := GenInstance(12, 7), GenInstance(12, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenInstance(12, 7) not reproducible")
	}
	c := GenInstance(12, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("GenInstance ignores the seed")
	}
}

// TestGenInstanceFixtureMatches pins the committed M=40 MPS fixture to
// the generator: benchmarks and the kernel-budget test below all run on
// exactly the bytes in testdata.
func TestGenInstanceFixtureMatches(t *testing.T) {
	f, err := os.Open("testdata/gen_m40.mps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := lp.ReadMPS(f)
	if err != nil {
		t.Fatal(err)
	}
	want := GenInstance(40, 1)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("testdata/gen_m40.mps does not match GenInstance(40, 1); regenerate the fixture")
	}
}

// TestSparseKernelBudgetM40 is the scaling claim: on the M=40 fixture
// the sparse kernel solves well inside the test budget, and it is the
// cheaper kernel there — the dense tableau kernel, same branching, same
// warm-start ladder, takes at least 1.25× the sparse kernel's wall time
// AND at least 1.25× its per-iteration cost. Each kernel's time is the
// minimum of five solves, and the two kernels alternate, so a burst of
// load from other processes lands on both instead of on one kernel's
// back-to-back block. The dense kernel eliminates over the pivot row's
// nonzeros only, which narrowed the measured gaps to 2.4–2.8× (wall) and
// 1.7–2.4× (per pivot), so 1.25× still leaves room for slow or contended
// machines.
func TestSparseKernelBudgetM40(t *testing.T) {
	p := GenInstance(40, 1)
	const budget = 5 * time.Second
	const ratio = 1.25
	const solves = 5

	// solve runs one fresh solve and keeps its aggregate and the fastest
	// wall time seen so far.
	solve := func(opt Options, agg **Solution, best *time.Duration) {
		t0 := time.Now()
		a, err := NewState(p.Clone(), opt).Solve()
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if !opt.DenseLP && wall > budget {
			t.Fatalf("sparse kernel blew the %v budget: %v", budget, wall)
		}
		*agg, *best = a, min(*best, wall)
	}
	var aggS, aggD *Solution
	sparseWall := time.Duration(math.MaxInt64)
	denseWall := sparseWall
	for k := 0; k < solves; k++ {
		solve(Options{DenseLP: true}, &aggD, &denseWall)
		solve(Options{}, &aggS, &sparseWall)
	}

	if aggS.Status != Optimal || aggD.Status != Optimal {
		t.Fatalf("status sparse %v dense %v", aggS.Status, aggD.Status)
	}
	if math.Abs(aggS.Objective-aggD.Objective) > 1e-9*(1+math.Abs(aggD.Objective)) {
		t.Fatalf("kernels disagree: sparse %.12g dense %.12g", aggS.Objective, aggD.Objective)
	}
	if aggS.Refactorizations == 0 {
		t.Fatal("sparse kernel reported zero refactorizations on a ~1000-iteration solve")
	}
	if denseWall.Seconds() < ratio*sparseWall.Seconds() {
		t.Fatalf("dense kernel not budget-bound: dense %v < %.2fx sparse %v", denseWall, ratio, sparseWall)
	}
	perS := sparseWall.Seconds() / float64(aggS.LPIterations)
	perD := denseWall.Seconds() / float64(aggD.LPIterations)
	if perD < ratio*perS {
		t.Fatalf("per-iteration cost: dense %.3gs < %.2fx sparse %.3gs", perD, ratio, perS)
	}
	t.Logf("sparse %v (%d iters), dense %v (%d iters), wall ratio %.1fx, per-iter ratio %.1fx",
		sparseWall, aggS.LPIterations, denseWall, aggD.LPIterations, denseWall.Seconds()/sparseWall.Seconds(), perD/perS)
}
