// Command hiopt runs the paper's Algorithm 1 — MILP-guided design-space
// exploration of a Human Intranet — on the §4.1 design example.
//
// Usage:
//
//	hiopt -pdrmin 0.9                 # optimize for PDR ≥ 90%
//	hiopt -pdrmin 1.0 -paper          # full-fidelity (600 s × 3 runs)
//	hiopt -pdrmin 0.5 -pool 4 -v      # capped pool, verbose iterations
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hiopt/internal/cli"
	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/lp"
	"hiopt/internal/report"
)

func main() {
	c := cli.New(flag.CommandLine, "hiopt")
	fid := c.Fidelity()
	var (
		pdrMin    = flag.Float64("pdrmin", 0.9, "minimum packet delivery ratio in [0,1]")
		pool      = flag.Int("pool", 0, "MILP solution-pool cap per iteration (0 = unlimited)")
		noAlpha   = flag.Bool("noalpha", false, "disable the α-bound early termination (ablation)")
		twoStage  = flag.Bool("twostage", false, "screen clearly-infeasible candidates with short simulations")
		adaptive  = flag.Bool("adaptive", false, "confidence-gated early replication stopping in the screening and robust stages (savings shown in the engine stats)")
		verbose   = flag.Bool("v", false, "print per-iteration progress")
		milpWrk   = flag.Int("milpworkers", 0, "fan MILP pool enumeration across this many subtree dive workers (0 = sequential; pools are bit-identical)")
		lpOut     = flag.String("lp", "", "write the MILP relaxation P̃ in CPLEX LP format to this file and exit")
		mpsOut    = flag.String("mps", "", "write the MILP relaxation P̃ in free MPS format to this file and exit")
		robust    = flag.Bool("robust", false, "verify candidates against k-node failure scenarios (simulate-and-screen)")
		kfail     = flag.Int("kfail", 1, "simultaneous node failures k the -robust verifier screens against")
		gammaFlag = flag.Float64("gamma", 0, "Γ protection budget: compile the Γ-robust relaxation into the proposer (> 0 implies -robust)")
		robustMin = flag.Float64("robustpdrmin", 0, "robust reliability floor (0 = -pdrmin; the worst-case PDR ceiling is (N−0.75)/N)")
		maxIter   = flag.Int("maxiter", 0, "Algorithm 1 iteration cap (0 = unlimited)")
	)
	c.Parse(os.Args[1:])

	pr := design.PaperProblem(*pdrMin)
	pr.Duration, pr.Runs, pr.Seed = fid.Duration, fid.Runs, fid.Seed

	if *lpOut != "" {
		f, err := os.Create(*lpOut)
		c.Check(err)
		defer f.Close()
		c.Check(core.WriteRelaxationLP(pr, f))
		fmt.Printf("MILP relaxation written to %s\n", *lpOut)
		return
	}
	if *mpsOut != "" {
		comp, _, err := core.CompileMILP(pr)
		c.Check(err)
		f, err := os.Create(*mpsOut)
		c.Check(err)
		defer f.Close()
		c.Check(lp.WriteMPS(f, comp, "hiopt"))
		fmt.Printf("MILP relaxation written to %s (MPS)\n", *mpsOut)
		return
	}

	opts := core.Options{PoolLimit: *pool, DisableAlphaBound: *noAlpha, TwoStage: *twoStage, AdaptiveReps: *adaptive,
		MILPWorkers: *milpWrk, MaxIterations: *maxIter}
	if *robust || *gammaFlag > 0 {
		opts.Robust = core.RobustOptions{
			Enabled:      true,
			KFailures:    *kfail,
			PDRMin:       *robustMin,
			ProposeGamma: *gammaFlag,
		}
	}
	if *verbose {
		opts.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	opts.Engine = c.Start(fid.Sig(), 0)
	t0 := time.Now()
	out, err := core.NewOptimizer(pr, opts).Run()
	c.Check(err)
	elapsed := time.Since(t0)

	fmt.Printf("status:       %s\n", out.Status)
	fmt.Printf("iterations:   %d\n", len(out.Iterations))
	fmt.Printf("evaluations:  %d configurations (%d simulator runs)\n", out.Evaluations, out.Simulations)
	fmt.Printf("MILP effort:  %d B&B nodes, %d LP pivots, %d on sparse kernels (%d warm re-solves, %d cold rebuilds, %d refactorizations); %d classes replayed (%d pivots)\n",
		out.MILPNodes, out.LPIterations, out.MILPSparsePivots, out.MILPWarmSolves, out.MILPColdSolves, out.MILPRefactorizations,
		out.MILPReplayedClasses, out.MILPReplayedPivots)
	fmt.Printf("presolve:     %d vars fixed, %d rows dropped, %d coefs tightened; %d parallel dives\n",
		out.PresolveFixedVars, out.PresolveDroppedRows, out.PresolveTightenedCoefs, out.MILPParallelDives)
	if out.MILPStaleRedos > 0 || out.MILPDiscardedPivots > 0 || out.MILPIterationCaps > 0 {
		fmt.Printf("MILP redos:   %d stale redos, %d pivots discarded, %d pivot-capped LP runs\n",
			out.MILPStaleRedos, out.MILPDiscardedPivots, out.MILPIterationCaps)
	}
	fmt.Printf("α-terminated: %v\n", out.TerminatedByAlpha)
	if opts.Robust.Enabled {
		fmt.Printf("robust:       k=%d, Γ=%g — %d nominally feasible candidates rejected by the fault screen\n",
			*kfail, *gammaFlag, out.RobustRejected)
	}
	fmt.Printf("wall time:    %s\n", elapsed.Round(time.Millisecond))
	if out.Best == nil {
		fmt.Println("result:       no feasible configuration")
		c.Close()
		os.Exit(2)
	}
	b := out.Best
	fmt.Printf("\noptimal configuration: %v\n", b.Point)
	fmt.Printf("  PDR          %s (bound %s)\n", report.Pct(b.PDR), report.Pct(pr.PDRMin))
	if opts.Robust.Enabled {
		fmt.Printf("  worst PDR    %s under k=%d failures\n", report.Pct(b.WorstPDR), *kfail)
	}
	fmt.Printf("  power        %s (analytic estimate %s)\n", report.MW(b.PowerMW), report.MW(b.AnalyticMW))
	fmt.Printf("  lifetime     %s\n", report.Days(b.NLTDays))

	if *verbose {
		fmt.Println("\nsearch trace (one row per MILP power class):")
		var rows [][]string
		for i, it := range out.Iterations {
			best := ""
			if len(it.Candidates) > 0 {
				cand := it.Candidates[0] // sorted by simulated power
				best = fmt.Sprintf("%v %s", cand.Point, report.Pct(cand.PDR))
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", i),
				report.MW(it.PBarStar),
				fmt.Sprintf("%d", len(it.Candidates)),
				fmt.Sprintf("%d", it.FeasibleCount),
				best,
			})
		}
		report.Table(os.Stdout, []string{"iter", "P̄* (analytic)", "pool", "feasible", "cheapest simulated"}, rows)
	}
	c.Close()
}
