package engine

import (
	"context"
	"reflect"
	"testing"

	"hiopt/internal/fault"
	"hiopt/internal/netsim"
)

// familyCfg is the 4-node TDMA star the family tests screen.
func familyCfg(dur float64) netsim.Config {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 2)
	cfg.Duration = dur
	return cfg
}

// evalFamily evaluates cfg's nominal run and its scenario family on a
// fresh engine, reducing the family through EvaluateFamilies, and returns
// the envelope, the skipped-scenario count, and the engine's stats.
func evalFamily(t *testing.T, cfg netsim.Config, runs int, seed uint64, scenarios []*fault.Scenario, tolerate int, gate *netsim.Gate) (*netsim.RobustResult, int, Stats) {
	t.Helper()
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	fam := Family{Tolerate: tolerate}
	if fam.Nominal, err = e.Evaluate(context.Background(), Request{Cfg: cfg, Runs: runs, Seed: seed, Key: PointKey(1)}); err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		c := cfg
		c.Scenario = sc
		fam.Reqs = append(fam.Reqs, Request{Cfg: c, Runs: runs, Seed: seed, Key: ScenarioKey(1, sc.Key())})
	}
	rrs, skipped, err := e.EvaluateFamilies(nil, []Family{fam}, gate)
	if err != nil {
		t.Fatal(err)
	}
	return rrs[0], skipped, e.Stats()
}

// TestEvaluateFamiliesUndecidedMatchesExhaustive: the family envelope with
// no gate, or with a never-deciding one, must equal the sequential
// Evaluator.EvaluateRobust bit-for-bit with zero savings; with a decisive
// gate it must save replications while keeping the same worst-case
// verdict direction on this clearly-infeasible-under-failure family.
func TestEvaluateFamiliesUndecidedMatchesExhaustive(t *testing.T) {
	cfg := familyCfg(20)
	scenarios := fault.ScenarioGen{Seed: 1}.KNodeFailures(cfg.Locations, cfg.CoordinatorLoc, 1, cfg.Duration)
	if len(scenarios) == 0 {
		t.Fatal("no scenarios generated")
	}
	const runs, seed = 3, 5
	want, err := netsim.EvaluateRobust(cfg, runs, seed, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	never := netsim.Gate{MinRuns: runs + 1}
	for _, gate := range []*netsim.Gate{nil, &never} {
		got, skipped, s := evalFamily(t, cfg, runs, seed, scenarios, len(scenarios), gate)
		if skipped != 0 || s.RepsSaved != 0 {
			t.Fatalf("gate %v: skipped %d scenarios, saved %d reps, want none", gate, skipped, s.RepsSaved)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("gate %v: family envelope diverged:\n got  %+v\nwant %+v", gate, got, want)
		}
	}

	loose := &netsim.Gate{PDRMin: 0.05, Margin: 0.01, Confidence: 0.95}
	got, _, s := evalFamily(t, cfg, runs, seed, scenarios, len(scenarios), loose)
	if s.RepsSaved <= 0 {
		t.Fatalf("saved = %d, want > 0 for a decisive gate", s.RepsSaved)
	}
	if (got.WorstPDR >= loose.PDRMin) != (want.WorstPDR >= loose.PDRMin) {
		t.Fatalf("gated verdict flipped: worst PDR %.4f vs exhaustive %.4f around bound %.2f",
			got.WorstPDR, want.WorstPDR, loose.PDRMin)
	}
}

// TestEvaluateFamiliesAllPass: when every scenario of the family sits
// comfortably above the gate's band, a sealable gated evaluation must
// still visit the whole family (all-pass is not a reason to skip
// scenarios — only to shorten their replication budgets), decide each
// scenario at the gate's MinRuns, and report the saved replications; the
// nominal run keeps its full budget bit-for-bit.
func TestEvaluateFamiliesAllPass(t *testing.T) {
	cfg := familyCfg(30)
	cfg.Channel.Sigma, cfg.Channel.BlockDB = 0, 0
	// Faults at locations the design does not use are inert: each
	// scenario's PDR equals the (high) nominal PDR, far above the band.
	scenarios := []*fault.Scenario{
		{Name: "inert-2", Failures: []fault.NodeFailure{{Location: 2, At: 7.5}}},
		{Name: "inert-4", Failures: []fault.NodeFailure{{Location: 4, At: 7.5}}},
		{Name: "inert-5", Failures: []fault.NodeFailure{{Location: 5, At: 7.5}}},
	}
	const runs = 6
	gate := &netsim.Gate{PDRMin: 0.5, Margin: 0.05}
	rr, skipped, s := evalFamily(t, cfg, runs, 9, scenarios, 0, gate)
	if skipped != 0 || len(rr.Scenarios) != len(scenarios) {
		t.Fatalf("all-pass family must be fully evaluated: got %d of %d scenarios (%d skipped)",
			len(rr.Scenarios), len(scenarios), skipped)
	}
	for _, m := range rr.Scenarios {
		if m.PDR < gate.PDRMin+gate.Margin {
			t.Fatalf("scenario %s PDR %v not above the band — test premise broken", m.Scenario.Name, m.PDR)
		}
	}
	// Inert faults leave the per-replication PDRs identical, so the CI
	// collapses and every scenario decides at the 2-replication minimum.
	if want := int64(len(scenarios) * (runs - 2)); s.RepsSaved != want {
		t.Fatalf("saved %d replications, want %d (decide at MinRuns)", s.RepsSaved, want)
	}
	// The nominal result is exempt from gating: full budget, identical to
	// the sequential evaluation's nominal.
	full, err := netsim.EvaluateRobust(cfg, runs, 9, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.Nominal, full.Nominal) {
		t.Fatal("gated nominal diverged from the sequential nominal")
	}
	if rr.WorstScenario == "" || rr.WorstPDR > rr.Nominal.PDR {
		t.Fatalf("envelope malformed: worst %v (%q) vs nominal %v",
			rr.WorstPDR, rr.WorstScenario, rr.Nominal.PDR)
	}
}

// TestEvaluateFamiliesSealsAfterTolerance: with every scenario breaching
// an unattainable bound, a family evaluates exactly Tolerate+1 scenarios
// wave by wave, skips the rest, and its envelope covers that prefix —
// equal to the sequential envelope over the same prefix. Families of
// different sizes and tolerances seal independently, and an empty family
// reports its nominal metrics.
func TestEvaluateFamiliesSealsAfterTolerance(t *testing.T) {
	cfg := familyCfg(10)
	scenarios := fault.ScenarioGen{Seed: 1}.KNodeFailures(cfg.Locations, cfg.CoordinatorLoc, 1, cfg.Duration)
	if len(scenarios) != 3 {
		t.Fatalf("expected 3 single-failure scenarios, got %d", len(scenarios))
	}
	const runs, seed = 2, 4
	nominal, err := netsim.RunAveraged(cfg, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	famOf := func(point uint32, scs []*fault.Scenario, tolerate int) Family {
		f := Family{Nominal: nominal, Tolerate: tolerate}
		for _, sc := range scs {
			c := cfg
			c.Scenario = sc
			f.Reqs = append(f.Reqs, Request{Cfg: c, Runs: runs, Seed: seed, Key: ScenarioKey(point, sc.Key())})
		}
		return f
	}
	fams := []Family{famOf(1, scenarios, 0), famOf(2, scenarios, 1), famOf(3, scenarios[:1], 0), famOf(4, nil, 0)}
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	gate := &netsim.Gate{PDRMin: 1.5, MinRuns: runs + 1} // every scenario breaches; never decides
	rrs, skipped, err := e.EvaluateFamilies(nil, fams, gate)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2+1 {
		t.Fatalf("skipped %d scenarios, want 3", skipped)
	}
	for i, want := range []int{1, 2, 1, 0} {
		if got := len(rrs[i].Scenarios); got != want {
			t.Fatalf("family %d evaluated %d scenarios, want %d", i, got, want)
		}
		seq, err := netsim.EvaluateRobust(cfg, runs, seed, scenarios[:want])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rrs[i], seq) {
			t.Fatalf("family %d prefix envelope diverged:\n got  %+v\nwant %+v", i, rrs[i], seq)
		}
	}
	if s := e.Stats(); s.Submitted != 4 {
		t.Fatalf("submitted %d scenario requests, want 4", s.Submitted)
	}
}
