// Pareto front: sweep Algorithm 1 across reliability bounds to chart the
// lifetime-versus-reliability trade-off of the whole Human Intranet
// design space — the curve the paper's Fig. 3 arrows trace. The sweep
// shares one simulation cache, so seven optimizations cost little more
// than the hardest one.
//
//	go run ./examples/pareto
package main

import (
	"fmt"
	"log"
	"strings"

	"hiopt"
)

func main() {
	problem := hiopt.NewPaperProblem(0.5)
	problem.Duration = 60
	problem.Runs = 1

	bounds := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}
	front, err := hiopt.ParetoFront(problem, bounds, hiopt.OptimizerOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Reliability–lifetime Pareto front of the design example:")
	fmt.Println()
	maxDays := 0.0
	for _, pt := range front {
		if pt.Best != nil && pt.Best.NLTDays > maxDays {
			maxDays = pt.Best.NLTDays
		}
	}
	totalSims := 0
	for _, pt := range front {
		totalSims += pt.Outcome.Simulations
		if pt.Best == nil {
			fmt.Printf("  PDR ≥ %4.0f%%  infeasible\n", pt.PDRMin*100)
			continue
		}
		bar := strings.Repeat("█", int(float64(pt.Best.NLTDays/maxDays*40)+0.5))
		fmt.Printf("  PDR ≥ %4.0f%%  %5.1f d %-40s  %v\n",
			pt.PDRMin*100, pt.Best.NLTDays, bar, pt.Best.Point)
	}
	fmt.Printf("\n  whole front computed with %d fresh simulations (cache shared across bounds)\n", totalSims)
}
