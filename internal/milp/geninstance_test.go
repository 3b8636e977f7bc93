package milp

import (
	"math"
	"os"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"hiopt/internal/linexpr"
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

// TestSparseKernelBudgetM40: on the M=40 fixture the sparse kernel
// solves well inside the test budget, agrees with the dense tableau
// kernel (same branching, same warm-start ladder) on the optimum, and
// refactorizes its LU along the way. The claim that it is also the
// cheaper kernel is TestSparseKernelCheaperM80's: with the dense row
// pass in SSE2 (DESIGN.md §10) the two kernels are close per pivot at
// this size.
func TestSparseKernelBudgetM40(t *testing.T) {
	aggS, aggD, _, _ := timeKernels(t, GenInstance(40, 1), 5*time.Second)
	if aggS.Refactorizations == 0 {
		t.Fatal("sparse kernel reported zero refactorizations on a ~1000-iteration solve")
	}
	t.Logf("sparse %d iters, dense %d iters", aggS.LPIterations, aggD.LPIterations)
}

// TestSparseKernelCheaperM80 is the scaling claim: on GenInstance(80, 1)
// (~2100 rows+vars, twice the M=40 fixture) the dense tableau kernel
// takes at least 1.25× the sparse kernel's wall time AND at least 1.25×
// its per-iteration cost, each kernel timed as the fastest of five
// alternating solves. Fifty runs at GOMAXPROCS 2 on a shared 2-vCPU
// host all passed, reading dense/sparse 2.36–4.29× wall (median 3.19×)
// and 2.53–4.60× per pivot (median 3.42×): dense 401–545 ms per solve
// against sparse 119–204 ms. At M=40 the same ratios read 1.12–2.48×
// and 0.94–2.08×, and 12 of 50 runs fell below the per-pivot floor
// there.
//
// The race detector instruments the sparse kernel's Go code, but not
// the dense kernel's assembly row pass: under -race the sparse kernel
// runs ~20× slower and the dense one ~2×, and dense/sparse reads about
// 0.4× at M=40, 96 and 112 alike. A race build therefore times the
// instrumentation, not the kernels, and the test skips there.
func TestSparseKernelCheaperM80(t *testing.T) {
	if raceBuild() {
		t.Skip("kernel timings under -race compare race instrumentation, not kernels")
	}
	const ratio = 1.25
	aggS, aggD, sparseWall, denseWall := timeKernels(t, GenInstance(80, 1), 5*time.Second)
	if denseWall.Seconds() < ratio*sparseWall.Seconds() {
		t.Fatalf("dense kernel not budget-bound: dense %v < %.2fx sparse %v", denseWall, ratio, sparseWall)
	}
	perS := sparseWall.Seconds() / float64(aggS.LPIterations)
	perD := denseWall.Seconds() / float64(aggD.LPIterations)
	if perD < ratio*perS {
		t.Fatalf("per-iteration cost: dense %.3gs < %.2fx sparse %.3gs", perD, ratio, perS)
	}
	t.Logf("sparse %v (%d iters), dense %v (%d iters), wall ratio %.2fx, per-iter ratio %.2fx",
		sparseWall, aggS.LPIterations, denseWall, aggD.LPIterations, denseWall.Seconds()/sparseWall.Seconds(), perD/perS)
}

// timeKernels solves p five times on each kernel, alternating, and
// returns each kernel's last aggregate and fastest wall time. A burst of
// load from other processes then lands on both kernels instead of on one
// kernel's back-to-back block. Every sparse solve must finish inside
// budget, both must reach the optimum, their objectives must agree to
// 1e-9, and SparsePivots must count the sparse kernel's pivots only.
func timeKernels(t *testing.T, p *linexpr.Compiled, budget time.Duration) (aggS, aggD *Solution, sparseWall, denseWall time.Duration) {
	t.Helper()
	solve := func(opt Options, agg **Solution, best *time.Duration) {
		t0 := time.Now()
		a, err := NewState(p.Clone(), opt).Solve()
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if opt.SparseLP && wall > budget {
			t.Fatalf("sparse kernel blew the %v budget: %v", budget, wall)
		}
		*agg, *best = a, min(*best, wall)
	}
	sparseWall = time.Duration(math.MaxInt64)
	denseWall = sparseWall
	for k := 0; k < 5; k++ {
		solve(Options{DenseLP: true}, &aggD, &denseWall)
		solve(Options{SparseLP: true}, &aggS, &sparseWall)
	}
	if aggS.Status != Optimal || aggD.Status != Optimal {
		t.Fatalf("status sparse %v dense %v", aggS.Status, aggD.Status)
	}
	if aggS.SparsePivots != aggS.LPIterations || aggD.SparsePivots != 0 {
		t.Fatalf("sparse pivots: %d of %d on the sparse kernel, %d on the dense one",
			aggS.SparsePivots, aggS.LPIterations, aggD.SparsePivots)
	}
	if math.Abs(aggS.Objective-aggD.Objective) > 1e-9*(1+math.Abs(aggD.Objective)) {
		t.Fatalf("kernels disagree: sparse %.12g dense %.12g", aggS.Objective, aggD.Objective)
	}
	return aggS, aggD, sparseWall, denseWall
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
