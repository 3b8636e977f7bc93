// Command hisweep simulates the entire feasible design space of the §4.1
// design example and emits the PDR-versus-lifetime scatter of the paper's
// Figure 3, as an aligned table and optionally as CSV for plotting.
//
// Usage:
//
//	hisweep -csv fig3.csv             # quick fidelity sweep
//	hisweep -paper -csv fig3_full.csv # the paper's 600 s × 3 runs
//	hisweep -robust -kfail 1,2 -robustcsv rb.csv  # nominal-vs-robust comparison
//	hisweep -gamma 0,1,2,3 -gammacsv gamma.csv    # Γ-robust price curve
//	hisweep -pareto -paretocsv front.csv          # ε-constraint NLT/PDR/latency front
//
// -pareto replaces the Figure 3 exhaustive sweep with the ε-constraint
// front study (its engine sharing numbers would be meaningless against
// an engine pre-filled by exhaustion); -bounds and -latmax refine it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hiopt/internal/cli"
	"hiopt/internal/experiments"
)

func main() {
	c := cli.New(flag.CommandLine, "hisweep")
	fid := c.Fidelity()
	var (
		csvPath    = flag.String("csv", "", "write the scatter to this CSV file")
		robust     = flag.Bool("robust", false, "also run the nominal-vs-robust comparison under k-node failures")
		kfail      = flag.String("kfail", "1,2", "comma-separated failure counts k for -robust")
		pdrMin     = flag.Float64("pdrmin", 0.9, "reliability bound of the -robust comparison")
		robustCSV  = flag.String("robustcsv", "", "write the -robust comparison to this CSV file")
		gamma      = flag.String("gamma", "", "comma-separated Γ protection budgets: run the Γ-robust price-curve study (e.g. 0,1,2,3)")
		gammaCSV   = flag.String("gammacsv", "", "write the Γ price curve to this CSV file")
		gammaIter  = flag.Int("gammaiter", 8, "Algorithm 1 iteration cap per Γ point (0 = unlimited)")
		robustMin  = flag.Float64("robustpdrmin", 0, "robust reliability floor of the -gamma study (0 = the attainable default)")
		pareto     = flag.Bool("pareto", false, "run the ε-constraint NLT/PDR/latency front study instead of the Figure 3 sweep")
		paretoCSV  = flag.String("paretocsv", "", "write the ε-constraint front to this CSV file")
		boundsFlag = flag.String("bounds", "", "comma-separated PDRmin bounds of the -pareto sweep (empty = the default 16-point grid)")
		latMax     = flag.Float64("latmax", 0, "p95 end-to-end latency bound in seconds for -pareto (0 = unbounded)")
		adaptive   = flag.Bool("adaptive", false, "confidence-gated adaptive evaluation in the -robust comparison and the -pareto sweep (short-circuits decisively infeasible scenario families; gates replications to the swept band)")
	)
	c.Parse(os.Args[1:])

	t0 := time.Now()
	suite := experiments.NewSuite(*fid, os.Stdout)
	suite.Adaptive = *adaptive
	suite.SetEngine(c.Start(fid.Sig(), 0))
	if *pareto {
		var bounds []float64
		for _, part := range strings.Split(*boundsFlag, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			b, err := strconv.ParseFloat(part, 64)
			if err != nil || b <= 0 || b > 1 {
				c.Check(fmt.Errorf("bad -bounds entry %q", part))
			}
			bounds = append(bounds, b)
		}
		_, err := suite.FR(bounds, *latMax, *paretoCSV)
		c.Check(err)
	} else {
		_, err := suite.Fig3(*csvPath)
		c.Check(err)
	}
	if *robust {
		var ks []int
		for _, part := range strings.Split(*kfail, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			k, err := strconv.Atoi(part)
			if err != nil || k <= 0 {
				c.Check(fmt.Errorf("bad -kfail entry %q", part))
			}
			ks = append(ks, k)
		}
		_, err := suite.RB(ks, *pdrMin, *robustCSV)
		c.Check(err)
	}
	if *gamma != "" {
		var gammas []float64
		for _, part := range strings.Split(*gamma, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			g, err := strconv.ParseFloat(part, 64)
			if err != nil || g < 0 {
				c.Check(fmt.Errorf("bad -gamma entry %q", part))
			}
			gammas = append(gammas, g)
		}
		_, err := suite.Gamma(gammas, *robustMin, *gammaIter, *gammaCSV)
		c.Check(err)
	}
	fmt.Printf("sweep completed in %s\n", time.Since(t0).Round(time.Millisecond))
	// The harness closes with the engine totals across every study
	// above, printed even when -csv/-robustcsv/-gammacsv redirected the
	// tables.
	c.Close()
}
