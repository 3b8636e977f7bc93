package netsim

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// TestTQuantilePinnedValues pins the Student-t quantile helper against
// standard table values: the df = 1 and 2 closed forms are exact, the
// Cornish–Fisher expansion for df ≥ 3 is accurate to well under a
// percent — more than a stop-early gate needs.
func TestTQuantilePinnedValues(t *testing.T) {
	cases := []struct {
		p    float64
		df   int
		want float64
		tol  float64 // relative
	}{
		{0.975, 1, 12.7062, 1e-5},
		{0.975, 2, 4.30265, 1e-5},
		{0.975, 3, 3.18245, 2e-3},
		{0.975, 4, 2.77645, 5e-4},
		{0.975, 9, 2.26216, 1e-4},
		{0.975, 29, 2.04523, 1e-4},
		{0.95, 1, 6.31375, 1e-5},
		{0.95, 4, 2.13185, 5e-4},
		{0.95, 9, 1.83311, 1e-4},
		{0.995, 9, 3.24984, 2e-3},
	}
	for _, c := range cases {
		got := tQuantile(c.p, c.df)
		if rel := math.Abs(got-c.want) / c.want; rel > c.tol {
			t.Errorf("tQuantile(%g, %d) = %.6g, want %.6g (rel err %.2g > %.2g)",
				c.p, c.df, got, c.want, rel, c.tol)
		}
	}
	// Large df approaches the normal quantile.
	if got := tQuantile(0.975, 10000); math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("tQuantile(0.975, 10000) = %.6g, want ≈ 1.95996", got)
	}
}

// TestPDRHalfWidthPinned pins the confidence-interval half-width on known
// (runs, stddev) pairs: t_{0.975,9}·0.02/√10 and the df = 1 exact case.
func TestPDRHalfWidthPinned(t *testing.T) {
	r := Result{Runs: 10, PDRStdDev: 0.02}
	want := 2.26216 * 0.02 / math.Sqrt(10)
	if got := r.PDRHalfWidth(0.95); math.Abs(got-want)/want > 1e-3 {
		t.Errorf("PDRHalfWidth(0.95) at n=10 = %.6g, want %.6g", got, want)
	}
	// conf ≤ 0 selects the conventional 0.95.
	if got, def := r.PDRHalfWidth(0), r.PDRHalfWidth(0.95); got != def {
		t.Errorf("PDRHalfWidth(0) = %.6g, want the 0.95 default %.6g", got, def)
	}
	two := Result{Runs: 2, PDRStdDev: 0.01}
	want2 := 12.7062 * 0.01 / math.Sqrt2
	if got := two.PDRHalfWidth(0.95); math.Abs(got-want2)/want2 > 1e-4 {
		t.Errorf("PDRHalfWidth(0.95) at n=2 = %.6g, want %.6g", got, want2)
	}
	// One run has no variance estimate: nothing can be decided from it.
	one := Result{Runs: 1, PDRStdDev: 0}
	if got := one.PDRHalfWidth(0.95); !math.IsInf(got, 1) {
		t.Errorf("PDRHalfWidth at n=1 = %v, want +Inf", got)
	}
	// Zero spread collapses the interval.
	flat := Result{Runs: 5}
	if got := flat.PDRHalfWidth(0.95); got != 0 {
		t.Errorf("PDRHalfWidth with zero stddev = %v, want 0", got)
	}
}

// TestAccumulateFinalizeMatchesRunAveraged is the merge API's bit-identity
// contract: folding independently obtained per-replication Results in
// replication order and finalizing must reproduce the sequential
// RunAveraged answer field-for-field, for every protocol combination.
func TestAccumulateFinalizeMatchesRunAveraged(t *testing.T) {
	const runs, seed = 3, 11
	for _, m := range []MACKind{CSMA, TDMA} {
		for _, rt := range []RoutingKind{Star, Mesh} {
			cfg := shortCfg([]int{0, 1, 3, 6}, m, rt, 1, 20)
			want, err := RunAveraged(cfg, runs, seed)
			if err != nil {
				t.Fatalf("%v/%v sequential: %v", m, rt, err)
			}
			reps := make([]*Result, runs)
			pdrs := make([]float64, runs)
			for r := 0; r < runs; r++ {
				reps[r], err = Run(cfg, seed+uint64(r))
				if err != nil {
					t.Fatalf("%v/%v rep %d: %v", m, rt, r, err)
				}
				pdrs[r] = reps[r].PDR
			}
			merged := reps[0]
			for r := 1; r < runs; r++ {
				merged.Accumulate(reps[r])
			}
			merged.Finalize(runs, cfg.BatteryJ, pdrs)
			if !reflect.DeepEqual(merged, want) {
				t.Fatalf("%v/%v merge diverged from sequential:\n got  %+v\nwant %+v", m, rt, merged, want)
			}
		}
	}
}

// TestFinalizeSingleRunRecordsCount: a one-replication finalize must not
// disturb the metrics (a single run is its own average) but still stamp
// the replication count.
func TestFinalizeSingleRunRecordsCount(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, TDMA, Star, 1, 10)
	want, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	got.Finalize(1, cfg.BatteryJ, []float64{got.PDR})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Finalize(1) changed the result:\n got  %+v\nwant %+v", got, want)
	}
	if got.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", got.Runs)
	}
}

// TestGateDecided exercises the stop rule's three outcomes: decisively
// above the band, decisively below, and undecided (including the
// MinRuns floor).
func TestGateDecided(t *testing.T) {
	g := Gate{PDRMin: 0.5, Margin: 0.05, Confidence: 0.95}
	if !g.Decided([]float64{0.90, 0.91}) {
		t.Error("tight samples far above the band should decide")
	}
	if !g.Decided([]float64{0.10, 0.12}) {
		t.Error("tight samples far below the band should decide")
	}
	if g.Decided([]float64{0.50, 0.51}) {
		t.Error("samples inside the band must not decide")
	}
	if g.Decided([]float64{0.9}) {
		t.Error("one sample has no variance estimate and must not decide")
	}
	if g.Decided([]float64{0.2, 0.9}) {
		t.Error("wildly spread samples must not decide")
	}
	floor := Gate{PDRMin: 0.5, Margin: 0.05, MinRuns: 3}
	if floor.Decided([]float64{0.90, 0.91}) {
		t.Error("MinRuns floor must hold the decision back")
	}
	if !floor.Decided([]float64{0.90, 0.91, 0.905}) {
		t.Error("MinRuns reached with a clear verdict should decide")
	}
}

// neverGate cannot decide within budget replications, so adaptive paths
// degrade to their exhaustive counterparts bit-for-bit.
func neverGate(budget int) Gate { return Gate{MinRuns: budget + 1} }

// TestReplicateUndecidedMatchesRunAveraged: with a gate that never
// decides, Replicate must spend the whole budget and return the
// sequential RunAveraged result bit-for-bit — as must a nil gate.
func TestReplicateUndecidedMatchesRunAveraged(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, CSMA, Mesh, 2, 20)
	want, err := RunAveraged(cfg, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	never := neverGate(4)
	for _, gate := range []*Gate{&never, nil} {
		got, ran, err := NewEvaluator().Replicate(nil, cfg, 4, 7, gate)
		if err != nil {
			t.Fatal(err)
		}
		if ran != 4 {
			t.Fatalf("gate %v: ran = %d, want the full budget 4", gate, ran)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("gate %v: undecided Replicate diverged:\n got  %+v\nwant %+v", gate, got, want)
		}
	}
}

// TestReplicateStopsEarly: a configuration far above a loose bound
// stops at the MinRuns floor, and the truncated average is bit-identical
// to RunAveraged over the replications that ran.
func TestReplicateStopsEarly(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, TDMA, Star, 2, 20)
	gate := Gate{PDRMin: 0.05, Margin: 0.01, Confidence: 0.95}
	got, ran, err := NewEvaluator().Replicate(context.Background(), cfg, 6, 7, &gate)
	if err != nil {
		t.Fatal(err)
	}
	if ran >= 6 {
		t.Fatalf("ran = %d, expected an early stop below the budget of 6", ran)
	}
	want, err := RunAveraged(cfg, ran, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("early-stopped result diverged from RunAveraged(%d):\n got  %+v\nwant %+v", ran, got, want)
	}
}
