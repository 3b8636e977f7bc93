package core

import (
	"slices"
	"testing"

	"hiopt/internal/body"
	"hiopt/internal/design"
	"hiopt/internal/phys"
)

// TestDeepChainPoolDoesNotCycle runs the Algorithm 1 chain of a
// personalized problem whose 8th pool call enumerates a 132-member,
// highly degenerate slab: PDR floor 0.984, 2 s horizon, body scaled by
// 1.104 and +2.17 dB NLoS shadowing. Under most-violated pricing alone
// one dense warm solve there cycled to its pivot cap and the whole call
// was thrown away and redone (~104k discarded pivots); the dense
// kernel's stall-triggered dual Bland rule must keep every LP run below
// its cap, and end the stall early. The pool sequence and the chosen
// design are pinned.
func TestDeepChainPoolDoesNotCycle(t *testing.T) {
	pr := design.PaperProblem(0.984)
	pr.Duration = 2
	pr.Runs = 1
	pr.Seed = 24545542
	pr.Channel.NLoSPenalty += phys.DB(2.17)
	locs := body.Default()
	for i := range locs {
		locs[i].X *= 1.104
		locs[i].Y *= 1.104
		locs[i].Z *= 1.104
	}
	pr.BodyLocations = locs

	out, err := NewOptimizer(pr, Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	pools := make([]int, len(out.Iterations))
	for i, it := range out.Iterations {
		pools[i] = len(it.Candidates)
	}
	t.Logf("pools %v, %d pivots kept, %d stale redos, %d pivots discarded, %d capped runs",
		pools, out.LPIterations, out.MILPStaleRedos, out.MILPDiscardedPivots, out.MILPIterationCaps)
	if want := []int{16, 16, 16, 72, 72, 72, 132, 132, 132}; !slices.Equal(pools, want) {
		t.Errorf("pools %v, pinned %v", pools, want)
	}
	if out.Best == nil {
		t.Fatal("no feasible design")
	}
	if got, want := out.Best.Point.String(), "[0 1 2 4 6 8] Star TDMA tx2"; got != want {
		t.Errorf("best %s, pinned %s", got, want)
	}
	if out.MILPIterationCaps != 0 {
		t.Errorf("%d warm LP runs hit their pivot cap (cycling)", out.MILPIterationCaps)
	}
	// One drift-triggered redo is left (DESIGN.md §14), costing 19,667
	// pivots. Without the stall trigger, the late Bland fallback alone
	// ends the same cycle only after 30,111 discarded pivots.
	if out.MILPDiscardedPivots > 25000 {
		t.Errorf("%d pivots discarded, want at most 25000", out.MILPDiscardedPivots)
	}
}
