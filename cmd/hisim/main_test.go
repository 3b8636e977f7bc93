package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"hiopt/internal/cli"
	"hiopt/internal/netsim"
)

// TestRobustOutputMatchesSequential: hisim's family call with no gate,
// on the harness-built engine, renders exactly what the sequential
// Evaluator.EvaluateRobust renders through the same printRobust
// reduction — the nominal row, every scenario row, and the worst-case
// line.
func TestRobustOutputMatchesSequential(t *testing.T) {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 0)
	cfg.Duration = 10
	const runs, seed = 3, 2
	eng := cli.New(flag.NewFlagSet("hisim", flag.ContinueOnError), "hisim").Start(0, 2)
	var got, want bytes.Buffer
	if err := runRobust(&got, eng, cfg, "knode=1", runs, seed, nil); err != nil {
		t.Fatal(err)
	}
	scenarios, err := parseFamily(cfg, "knode=1", seed)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := netsim.EvaluateRobust(cfg, runs, seed, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	printRobust(&want, seq)
	if !strings.HasSuffix(got.String(), want.String()) {
		t.Fatalf("family output diverged:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
}
