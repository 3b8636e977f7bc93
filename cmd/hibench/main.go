// Command hibench regenerates the paper's evaluation artifacts — every
// table, figure, and headline claim, plus the ablation studies of
// DESIGN.md — and prints paper-versus-measured comparisons.
//
// Usage:
//
//	hibench                      # all experiments at quick fidelity
//	hibench -exp f3,r1           # a subset
//	hibench -paper               # the paper's full 600 s × 3-run setting
//
// Experiment identifiers: t1, f1, f3, r1, r2, r3, a1..a11, pf, all, plus
// rb (nominal-vs-robust comparison), gm (Γ-robust proposer vs
// screen-and-cut price curve), and fr (ε-constraint
// NLT/PDR/latency front), all excluded from "all" for cost.
//
// Performance tooling: -cpuprofile/-memprofile write pprof profiles of
// the run, and -benchjson measures the micro-benchmarks of
// internal/microbench in-process and emits them (with per-experiment wall
// times) as JSON — the generator of the checked-in BENCH_simcore.json.
// Entries of an existing file that it does not measure, such as
// hiserve-bench's ServeLoad, are kept. Such files are diffed with
//
//	hibench -cmp OLD.json NEW.json [NEW2.json ...]
//
// which prints a delta table and exits non-zero when any benchmark's
// ns_per_op regressed by more than 10% (the `make benchcmp` gate). With
// several NEW runs of the same code it gates each benchmark's fastest
// ns_per_op and its largest allocs_per_op and bytes_per_op.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hiopt/internal/cli"
	"hiopt/internal/experiments"
)

func main() {
	c := cli.New(flag.CommandLine, "hibench")
	fid := c.Fidelity()
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment ids (t1,f1,f3,r1,r2,r3,a1..a11,pf,rb,gm,fr,all)")
		csvPath   = flag.String("csv", "", "write the F3 scatter to this CSV file")
		benchJSON = flag.String("benchjson", "", "measure the simulator micro-benchmarks and write BENCH_simcore.json-style output to this file")
		cmp       = flag.Bool("cmp", false, "compare -benchjson files: hibench -cmp OLD NEW [NEW...] gates the minimum ns/op and the maximum allocs/op and B/op over the NEW runs (exits non-zero on >10% regressions)")
		nsDelta   = flag.Float64("nsdelta", 0, "-cmp ns/op regression threshold (0 = the default 0.10; allocs/op and B/op always gate at 0.10 — widen this on noisy shared machines where timings flap but allocation counts stay exact)")
	)
	c.Parse(os.Args[1:])

	if *cmp {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "hibench -cmp: want at least two arguments: OLD NEW [NEW...]")
			os.Exit(1)
		}
		runBenchCmp(flag.Arg(0), flag.Args()[1:], *nsDelta)
		return
	}

	suite := experiments.NewSuite(*fid, os.Stdout, c.Start(fid.Sig(), 0))

	want := map[string]bool{}
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]
	expSeconds := map[string]float64{}
	run := func(id string, fn func() error) {
		if !all && !want[id] {
			return
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			c.Check(fmt.Errorf("%s: %w", id, err))
		}
		elapsed := time.Since(t0)
		expSeconds[id] = elapsed.Seconds()
		fmt.Printf("[%s done in %s]\n\n", id, elapsed.Round(time.Millisecond))
	}

	run("t1", func() error { suite.Table1(); return nil })
	run("f1", func() error { suite.Fig1(); return nil })
	run("f3", func() error { _, err := suite.Fig3(*csvPath); return err })
	run("r1", func() error { _, err := suite.R1(nil); return err })
	run("r2", func() error { _, err := suite.R2(nil); return err })
	run("r3", func() error { _, err := suite.R3(nil, 0); return err })
	run("a1", func() error { _, err := suite.A1(); return err })
	run("a2", func() error { _, err := suite.A2(); return err })
	run("a3", func() error { _, err := suite.A3(); return err })
	run("a4", func() error { _, err := suite.A4(); return err })
	run("a5", func() error { _, err := suite.A5(); return err })
	run("a6", func() error { _, err := suite.A6(); return err })
	run("a7", func() error { _, err := suite.A7(); return err })
	run("a8", func() error { _, err := suite.A8(); return err })
	run("a9", func() error { _, err := suite.A9(); return err })
	run("a10", func() error { _, err := suite.A10(); return err })
	run("a11", func() error { _, err := suite.A11(); return err })
	run("pf", func() error { _, err := suite.PF(nil); return err })
	// rb re-simulates every nominally feasible sweep entry under its
	// k-node-failure family — too costly for "all"; request it explicitly.
	if want["rb"] {
		run("rb", func() error { _, err := suite.RB(nil, 0.9, *csvPath); return err })
	}
	// gm runs full Algorithm 1 searches at Γ ∈ {0,1,2,3} against the
	// k=1 fault verifier — likewise explicit-only.
	if want["gm"] {
		run("gm", func() error { _, err := suite.Gamma(nil, 0, 8, *csvPath); return err })
	}
	// fr enumerates the ε-constraint front over the default 16-bound grid
	// (one Algorithm 1 run per bound over the engine's class ledger) —
	// likewise explicit-only.
	if want["fr"] {
		run("fr", func() error { _, err := suite.FR(nil, 0, *csvPath); return err })
	}

	if *benchJSON != "" {
		c.Check(writeBenchJSON(*benchJSON, expSeconds))
		fmt.Printf("[bench JSON written to %s]\n", *benchJSON)
	}
	c.Close()
}
