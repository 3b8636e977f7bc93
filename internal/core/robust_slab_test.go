package core

import (
	"math"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
)

// TestGammaOneSecondClassSlab pins the Γ = 1 relaxation's known-cost
// regression: after pruning the first power class, the second class is a
// highly degenerate 132-member slab (every protected star pinned to tx2,
// so huge objective ties). Warm single-tree pool enumeration must detect
// the distress (stale-twice guard) and fall back to the legacy
// clone-based enumeration — observable as an aggregate with NO
// warm-state solves at all (WarmSolves == 0 && ColdSolves == 0: the
// clone path solves on throwaway solvers that never report into the
// persistent state's stats, where the first, warm-enumerated class
// records hundreds) — and the fallback must still deliver the complete,
// feasible 132-member slab. If the member counts, objectives, or the
// fallback signature move, the DESIGN.md §13 "Known cost" contract has
// changed and the pinned hisweep -gamma / hibench -exp gm outputs need
// re-auditing.
func TestGammaOneSecondClassSlab(t *testing.T) {
	if testing.Short() {
		t.Skip("the legacy clone enumeration of the 132-member slab takes ~15 s")
	}
	pr := design.PaperProblem(0.9)
	mm, _, err := buildRobustMILP(pr, RobustCompile{Gamma: 1, PDRFloor: 0.83})
	if err != nil {
		t.Fatal(err)
	}
	work := mm.model.Compile()
	st := milp.NewState(work, milp.Options{})
	if st.Legacy() {
		t.Fatal("Γ=1 paper problem fell back to legacy at compile time")
	}

	pool1, agg1, err := st.SolvePool(0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if agg1.Status != milp.Optimal {
		t.Fatalf("first class: status %v", agg1.Status)
	}
	t.Logf("first class: %d members, obj %.10g, warm=%d cold=%d",
		len(pool1), agg1.Objective, agg1.WarmSolves, agg1.ColdSolves)
	if len(pool1) != 72 {
		t.Errorf("first class pool size %d, pinned 72", len(pool1))
	}
	if math.Abs(agg1.Objective-1.34921875) > 1e-9 {
		t.Errorf("first class obj %.10g, pinned 1.34921875", agg1.Objective)
	}
	if agg1.WarmSolves == 0 {
		t.Error("first class recorded no warm solves: it must enumerate on the warm kernel")
	}

	work.AddExprRow("prune_0", mm.objective, linexpr.GE, agg1.Objective+1e-4)
	pool2, agg2, err := st.SolvePool(0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if agg2.Status != milp.Optimal {
		t.Fatalf("second class: status %v", agg2.Status)
	}
	t.Logf("second class: %d members, obj %.10g, warm=%d cold=%d",
		len(pool2), agg2.Objective, agg2.WarmSolves, agg2.ColdSolves)
	if len(pool2) != 132 {
		t.Errorf("second class pool size %d, pinned 132", len(pool2))
	}
	if math.Abs(agg2.Objective-1.62578125) > 1e-9 {
		t.Errorf("second class obj %.10g, pinned 1.62578125", agg2.Objective)
	}
	if agg2.WarmSolves != 0 || agg2.ColdSolves != 0 {
		t.Errorf("second class solved warm=%d cold=%d: the degenerate slab must "+
			"trip the legacy clone-enumeration fallback, whose throwaway solvers "+
			"record no warm-state stats (warm==0, cold==0)",
			agg2.WarmSolves, agg2.ColdSolves)
	}
	for i, ps := range pool2 {
		if err := milp.CheckFeasible(work, ps.X, 1e-6); err != nil {
			t.Fatalf("second class member %d: %v", i, err)
		}
	}
}
