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
// screen-and-cut price curve), and fr (warm ε-constraint
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

	"hiopt/internal/engine"
	"hiopt/internal/experiments"
	"hiopt/internal/profiling"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids (t1,f1,f3,r1,r2,r3,a1..a11,pf,rb,gm,fr,all)")
		duration   = flag.Float64("duration", 60, "simulation horizon in seconds")
		runs       = flag.Int("runs", 1, "runs to average")
		seed       = flag.Uint64("seed", 1, "master random seed")
		paper      = flag.Bool("paper", false, "paper fidelity (600 s × 3 runs)")
		csvPath    = flag.String("csv", "", "write the F3 scatter to this CSV file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchJSON  = flag.String("benchjson", "", "measure the simulator micro-benchmarks and write BENCH_simcore.json-style output to this file")
		cmp        = flag.Bool("cmp", false, "compare -benchjson files: hibench -cmp OLD NEW [NEW...] gates the minimum ns/op and the maximum allocs/op and B/op over the NEW runs (exits non-zero on >10% regressions)")
		nsDelta    = flag.Float64("nsdelta", 0, "-cmp ns/op regression threshold (0 = the default 0.10; allocs/op and B/op always gate at 0.10 — widen this on noisy shared machines where timings flap but allocation counts stay exact)")
		cacheFile  = flag.String("cachefile", "", "persistent result cache: load completed simulations from this file and append fresh ones, so a repeated run at the same fidelity starts warm")
		shards     = flag.Int("shards", 0, "engine cache shard count, a power of two (0 = default)")
	)
	flag.Parse()
	if err := engine.CheckShards(*shards); err != nil {
		fmt.Fprintln(os.Stderr, "hibench:", err)
		os.Exit(1)
	}

	if *cmp {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "hibench -cmp: want at least two arguments: OLD NEW [NEW...]")
			os.Exit(1)
		}
		runBenchCmp(flag.Arg(0), flag.Args()[1:], *nsDelta)
		return
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hibench:", err)
		os.Exit(1)
	}

	fid := experiments.Fidelity{Duration: *duration, Runs: *runs, Seed: *seed}
	if *paper {
		fid = experiments.Paper
		fid.Seed = *seed
	}
	suite := experiments.NewSuite(fid, os.Stdout)
	var eng *engine.Engine
	if *cacheFile != "" || *shards != 0 {
		eng, err = engine.NewSharded(0, *shards)
		if err == nil && *cacheFile != "" {
			var n int
			n, err = eng.AttachCacheFile(*cacheFile, fid.Sig())
			if n > 0 {
				fmt.Printf("cache: loaded %d entries from %s\n", n, *cacheFile)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hibench:", err)
			os.Exit(1)
		}
		suite.SetEngine(eng)
	}

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
			fmt.Fprintf(os.Stderr, "hibench %s: %v\n", id, err)
			os.Exit(1)
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
	// fr enumerates the warm ε-constraint front over the default 16-bound
	// grid (one full Algorithm 1 enumeration plus incremental re-solves)
	// — likewise explicit-only.
	if want["fr"] {
		run("fr", func() error { _, err := suite.FR(nil, 0, false, *csvPath); return err })
	}

	if eng != nil {
		if err := eng.CloseSpill(); err != nil {
			fmt.Fprintln(os.Stderr, "hibench:", err)
			os.Exit(1)
		}
		fmt.Printf("engine: %s\n", suite.EngineStats())
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, expSeconds); err != nil {
			fmt.Fprintln(os.Stderr, "hibench:", err)
			os.Exit(1)
		}
		fmt.Printf("[bench JSON written to %s]\n", *benchJSON)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "hibench:", err)
		os.Exit(1)
	}
}
