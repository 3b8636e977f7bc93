package netsim

import (
	"reflect"
	"testing"

	"hiopt/internal/fault"
)

// TestEmptyScenarioBitIdentical is the core invariant of the fault layer:
// attaching a nil or empty Scenario must not perturb a single bit of the
// simulation — no extra events, no arithmetic drift in the energy
// accounting, no RNG stream divergence.
func TestEmptyScenarioBitIdentical(t *testing.T) {
	for _, m := range []MACKind{CSMA, TDMA} {
		for _, r := range []RoutingKind{Star, Mesh} {
			cfg := shortCfg([]int{0, 1, 3, 6}, m, r, 1, 30)
			plain, err := Run(cfg, 42)
			if err != nil {
				t.Fatalf("%v/%v plain: %v", m, r, err)
			}
			for _, sc := range []*fault.Scenario{nil, {}, {Name: "named-but-empty"}} {
				c := cfg
				c.Scenario = sc
				got, err := Run(c, 42)
				if err != nil {
					t.Fatalf("%v/%v scenario %v: %v", m, r, sc, err)
				}
				if !reflect.DeepEqual(got, plain) {
					t.Fatalf("%v/%v: empty scenario %v perturbed the result:\n got  %+v\nwant %+v",
						m, r, sc, got, plain)
				}
			}
		}
	}
}

// richFaultScenario exercises every fault kind at once: a permanent
// failure, a recoverable outage, a link burst, and a battery drain.
func richFaultScenario() *fault.Scenario {
	return &fault.Scenario{
		Name:     "rich",
		Failures: []fault.NodeFailure{{Location: 6, At: 20}},
		Outages:  []fault.NodeOutage{{Location: 1, Start: 5, End: 12}},
		Links:    []fault.LinkOutage{{LocA: 0, LocB: 3, Start: 8, End: 18}},
		Drains:   []fault.BatteryDrain{{Location: 3, Factor: 50}},
	}
}

// TestFaultScenarioPooledDeterminism extends the PR-1 pooling contract to
// fault injection: the same (Config+Scenario, seed) must yield a Result
// identical field-for-field across a fresh evaluator and a recycled one,
// on every repetition.
func TestFaultScenarioPooledDeterminism(t *testing.T) {
	for _, m := range []MACKind{CSMA, TDMA} {
		for _, r := range []RoutingKind{Star, Mesh} {
			cfg := shortCfg([]int{0, 1, 3, 6}, m, r, 1, 30)
			cfg.Scenario = richFaultScenario()
			fresh, err := Run(cfg, 42)
			if err != nil {
				t.Fatalf("%v/%v fresh: %v", m, r, err)
			}
			ev := NewEvaluator()
			for rep := 0; rep < 3; rep++ {
				got, err := ev.Run(cfg, 42)
				if err != nil {
					t.Fatalf("%v/%v pooled run %d: %v", m, r, rep, err)
				}
				if !reflect.DeepEqual(got, fresh) {
					t.Fatalf("%v/%v pooled run %d diverged:\n got  %+v\nwant %+v", m, r, rep, got, fresh)
				}
			}
		}
	}
}

// TestScenarioNodeFailureDegradesMesh: a mid-run relay failure must lower
// the mesh PDR without collapsing it — surviving pairs keep communicating.
func TestScenarioNodeFailureDegradesMesh(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 4, 6}, TDMA, Mesh, 2, 40)
	quietChannel(&cfg)
	nominal, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Scenario = &fault.Scenario{Failures: []fault.NodeFailure{{Location: 3, At: 10}}}
	failed, err := Run(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !(failed.PDR < nominal.PDR) {
		t.Fatalf("node failure did not reduce PDR: %v vs nominal %v", failed.PDR, nominal.PDR)
	}
	if failed.PDR <= 0 {
		t.Fatalf("mesh collapsed entirely (PDR %v); survivors should still deliver", failed.PDR)
	}
}

// TestScenarioOutageBetweenNominalAndPermanent: a temporary outage over
// [At, End) must hurt less than a permanent failure at the same At and
// more than no fault at all.
func TestScenarioOutageBetweenNominalAndPermanent(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, TDMA, Star, 2, 40)
	quietChannel(&cfg)
	run := func(sc *fault.Scenario) float64 {
		c := cfg
		c.Scenario = sc
		res, err := Run(c, 7)
		if err != nil {
			t.Fatal(err)
		}
		return res.PDR
	}
	nominal := run(nil)
	outage := run(&fault.Scenario{Outages: []fault.NodeOutage{{Location: 6, Start: 10, End: 20}}})
	permanent := run(&fault.Scenario{Failures: []fault.NodeFailure{{Location: 6, At: 10}}})
	if !(permanent < outage && outage < nominal) {
		t.Fatalf("want permanent < outage < nominal, got %v / %v / %v", permanent, outage, nominal)
	}
}

// TestScenarioLinkOutageLowersPDR: shadowing the star uplink of one node
// for half the run must cost deliveries on that link.
func TestScenarioLinkOutageLowersPDR(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, TDMA, Star, 2, 40)
	quietChannel(&cfg)
	nominal, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Scenario = &fault.Scenario{Links: []fault.LinkOutage{{LocA: 0, LocB: 6, Start: 10, End: 30}}}
	burst, err := Run(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !(burst.PDR < nominal.PDR) {
		t.Fatalf("link outage did not reduce PDR: %v vs nominal %v", burst.PDR, nominal.PDR)
	}
}

// TestScenarioDrainKillsNode: an absurd drain factor must exhaust the
// battery mid-run and stop the node's traffic, reducing total Sent.
func TestScenarioDrainKillsNode(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, TDMA, Star, 2, 40)
	quietChannel(&cfg)
	nominal, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Scenario = &fault.Scenario{Drains: []fault.BatteryDrain{{Location: 6, Factor: 1e7}}}
	drained, err := Run(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !(drained.Sent < nominal.Sent) {
		t.Fatalf("drain did not silence the node: sent %d vs nominal %d", drained.Sent, nominal.Sent)
	}
	if !(drained.PDR < nominal.PDR) {
		t.Fatalf("drain did not reduce PDR: %v vs nominal %v", drained.PDR, nominal.PDR)
	}
}

// TestScenarioInertAtAbsentLocation: faults referencing locations the
// topology does not use must change nothing, so one scenario family can
// screen candidates with different location subsets.
func TestScenarioInertAtAbsentLocation(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, CSMA, Star, 1, 30)
	plain, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Scenario = &fault.Scenario{
		Failures: []fault.NodeFailure{{Location: 5, At: 10}},
		Drains:   []fault.BatteryDrain{{Location: 4, Factor: 1e7}},
	}
	got, err := Run(c, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("faults at absent locations perturbed the result:\n got  %+v\nwant %+v", got, plain)
	}
}

// TestScenarioValidationThroughConfig: Config.Validate must surface
// scenario errors.
func TestScenarioValidationThroughConfig(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, CSMA, Star, 1, 30)
	cfg.Scenario = &fault.Scenario{Outages: []fault.NodeOutage{{Location: 1, Start: 20, End: 10}}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted an inverted outage window")
	}
	if _, err := Run(cfg, 1); err == nil {
		t.Fatal("Run accepted an invalid scenario")
	}
}

// TestEvaluateRobustWorstCase: the robust envelope must report the
// family's minimum PDR and a nominal result matching a plain run.
func TestEvaluateRobustWorstCase(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, TDMA, Star, 2, 30)
	quietChannel(&cfg)
	scenarios := []*fault.Scenario{
		{Name: "lose-1", Failures: []fault.NodeFailure{{Location: 1, At: 7.5}}},
		{Name: "lose-6", Failures: []fault.NodeFailure{{Location: 6, At: 7.5}}},
	}
	rr, err := EvaluateRobust(cfg, 1, 9, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.Nominal, plain) {
		t.Fatalf("robust nominal diverged from plain run:\n got  %+v\nwant %+v", rr.Nominal, plain)
	}
	if len(rr.Scenarios) != 2 {
		t.Fatalf("want 2 scenario entries, got %d", len(rr.Scenarios))
	}
	min := rr.Scenarios[0].PDR
	for _, m := range rr.Scenarios {
		if m.PDR < min {
			min = m.PDR
		}
	}
	if rr.WorstPDR != min {
		t.Fatalf("WorstPDR %v != family minimum %v", rr.WorstPDR, min)
	}
	if rr.WorstPDR >= rr.Nominal.PDR {
		t.Fatalf("worst case (%v) not below nominal (%v)", rr.WorstPDR, rr.Nominal.PDR)
	}
	if rr.WorstScenario == "" {
		t.Fatal("WorstScenario label empty")
	}
	if got := rr.PDRQuantile(0); got != rr.WorstPDR {
		t.Fatalf("PDRQuantile(0) = %v, want worst %v", got, rr.WorstPDR)
	}
	if got := rr.PDRQuantile(0.999); got != max(rr.Scenarios[0].PDR, rr.Scenarios[1].PDR) {
		t.Fatalf("PDRQuantile(~1) = %v, want best scenario PDR", got)
	}
}

// TestEvaluateRobustEmptyFamily: with no scenarios the envelope equals
// the nominal run.
func TestEvaluateRobustEmptyFamily(t *testing.T) {
	cfg := shortCfg([]int{0, 1, 3, 6}, CSMA, Star, 1, 20)
	rr, err := EvaluateRobust(cfg, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.WorstPDR != rr.Nominal.PDR || rr.WorstScenario != "" || len(rr.Scenarios) != 0 {
		t.Fatalf("empty family should echo nominal: %+v", rr)
	}
	if got := rr.PDRQuantile(0); got != rr.Nominal.PDR {
		t.Fatalf("PDRQuantile on empty family = %v, want nominal %v", got, rr.Nominal.PDR)
	}
}
