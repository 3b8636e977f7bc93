package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/exhaustive"
	"hiopt/internal/fault"
	"hiopt/internal/netsim"
)

// TestRBSmokeCSVGolden pins the nominal-vs-robust CSV of hisweep
// -duration 5 -robust -kfail 1 byte for byte, once exhaustive and once
// with Suite.Adaptive: every configuration's nominal and worst-case
// metrics, its worst scenario and its robust verdict. The adaptive CSV
// differs from the exhaustive one only where a family was sealed on its
// first breach and so reports the worst case of its evaluated prefix.
func TestRBSmokeCSVGolden(t *testing.T) {
	for _, tc := range []struct {
		adaptive bool
		golden   string
	}{
		{false, "rb_smoke.csv"},
		{true, "rb_smoke_adaptive.csv"},
	} {
		s := NewSuite(Fidelity{Duration: 5, Runs: 1, Seed: 1}, io.Discard, nil)
		s.Adaptive = tc.adaptive
		path := filepath.Join(t.TempDir(), "rb.csv")
		if _, err := s.RB([]int{1}, 0.9, path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("RB CSV (adaptive=%v) differs from testdata/%s", tc.adaptive, tc.golden)
		}
	}
}

// TestRBRowsMatchSequential: RB's family call with no gate reduces, row by
// row, to exactly what the sequential Evaluator.EvaluateRobust gives under
// the same rbRow reduction over the same k-node-failure family.
func TestRBRowsMatchSequential(t *testing.T) {
	s := NewSuite(Fidelity{Duration: 5, Runs: 2, Seed: 3}, io.Discard, nil)
	s.Mutate = func(pr *design.Problem) { pr.Constraints.MaxNodes = 4 }
	const k, pdrMin, tol = 1, 0.9, 0.001
	res, err := s.RB([]int{k}, pdrMin, "")
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := s.exhaustiveSweep()
	if err != nil {
		t.Fatal(err)
	}
	entries := make(map[uint32]*exhaustive.Entry)
	for i := range sweep.All {
		entries[sweep.All[i].Point.Key()] = &sweep.All[i]
	}
	pr := s.sweepProb
	gen := fault.ScenarioGen{Seed: pr.Seed}
	ev := netsim.NewEvaluator()
	rows := res[0].Rows
	if len(rows) == 0 {
		t.Fatal("no nominally feasible configuration — test premise broken")
	}
	t.Logf("%d rows, %d robust-feasible", len(rows), res[0].RobustFeasible)
	for _, row := range rows {
		e := entries[row.Point.Key()]
		cfg := pr.Config(e.Point)
		exclude := -1
		if e.Point.Routing == netsim.Star {
			exclude = cfg.CoordinatorLoc
		}
		scenarios := gen.KNodeFailures(e.Point.Locations(), exclude, k, pr.Duration)
		rr, err := ev.EvaluateRobust(cfg, pr.Runs, pr.Seed, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		if want := rbRow(k, e, rr, pdrMin, tol); !reflect.DeepEqual(row, want) {
			t.Fatalf("%v: family row %+v, sequential %+v", e.Point, row, want)
		}
	}
}
