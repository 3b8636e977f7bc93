package main

import (
	"bytes"
	"testing"

	"hiopt/internal/engine"
	"hiopt/internal/netsim"
)

// TestRobustOutputMatchesSequential: hisim's family call with no gate
// renders exactly what the sequential Evaluator.EvaluateRobust renders
// through the same printRobust reduction — the nominal row, every
// scenario row, and the worst-case line.
func TestRobustOutputMatchesSequential(t *testing.T) {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 0)
	cfg.Duration = 10
	const runs, seed = 3, 2
	scenarios, err := parseFamily(cfg, "knode=1", seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(2)
	if err != nil {
		t.Fatal(err)
	}
	fam := engine.Family{Tolerate: len(scenarios)}
	if fam.Nominal, err = eng.Evaluate(engine.Request{Cfg: cfg, Runs: runs, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		c := cfg
		c.Scenario = sc
		fam.Reqs = append(fam.Reqs, engine.Request{Cfg: c, Runs: runs, Seed: seed})
	}
	rrs, _, err := eng.EvaluateFamilies(nil, []engine.Family{fam}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := netsim.EvaluateRobust(cfg, runs, seed, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	printRobust(&got, rrs[0])
	printRobust(&want, seq)
	if got.String() != want.String() {
		t.Fatalf("family output diverged:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
}
