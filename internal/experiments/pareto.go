package experiments

import (
	"context"
	"fmt"
	"os"

	"hiopt/internal/core"
	"hiopt/internal/report"
)

// FR runs the ε-constraint front study: one core.ParetoSweep over the
// reliability bounds (DefaultSweepBounds when empty), reporting each
// bound's optimum with its latency profile, the pivots of the classes
// each bound reached first within the sweep (whatever the suite engine's
// class ledger already held), and the non-dominated front. latMax > 0 adds
// the p95 latency ε constraint; csvPath, when non-empty, receives the
// front as CSV. The Suite.Adaptive flag gates replication spending to
// the swept band. The sweep shares the suite engine, so the engine line
// reports only this study's delta — it is printed even when the CSV
// redirects, same as the robustness studies.
func (s *Suite) FR(bounds []float64, latMax float64, csvPath string) (*core.SweepResult, error) {
	fmt.Fprintln(s.W, "FR — extension: ε-constraint NLT/PDR/latency front")
	res, err := core.ParetoSweep(context.Background(), s.problem(0.5), core.SweepOptions{
		Bounds:     bounds,
		LatencyMax: latMax,
		Adaptive:   s.Adaptive,
		Options:    core.Options{Engine: s.eng},
	})
	if err != nil {
		return nil, err
	}
	var tbl [][]string
	for _, pt := range res.Points {
		front := ""
		if !pt.Dominated {
			front = "*"
		}
		if pt.Best == nil {
			tbl = append(tbl, []string{report.Pct(pt.PDRMin), "infeasible", "", "", "", "",
				fmt.Sprintf("%d", pt.LPIterations), front})
			continue
		}
		tbl = append(tbl, []string{
			report.Pct(pt.PDRMin), pointLabel(pt.Best.Point),
			report.Pct(pt.Best.PDR), report.Days(pt.Best.NLTDays),
			report.MW(pt.Best.PowerMW),
			fmt.Sprintf("%.2f ms", pt.Best.P95Latency*1000),
			fmt.Sprintf("%d", pt.LPIterations), front,
		})
	}
	report.Table(s.W, []string{"PDRmin", "configuration", "PDR", "NLT", "power",
		"p95 latency", "pivots", "front"}, tbl)
	fmt.Fprintf(s.W, "  front: %d of %d points non-dominated\n", len(res.Front()), len(res.Points))
	fmt.Fprintf(s.W, "  MILP effort: %d pivots solved\n", res.LPIterations)
	fmt.Fprintf(s.W, "  engine: %s (fresh fraction %s)\n", res.Engine, report.Pct(res.Engine.FreshFrac()))

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var csvRows [][]string
		for _, pt := range res.Points {
			row := []string{report.F(pt.PDRMin, 6), fmt.Sprintf("%v", pt.Best != nil)}
			if pt.Best != nil {
				row = append(row,
					fmt.Sprintf("%v", pt.Best.Point.Locations()),
					pt.Best.Point.Routing.String(), pt.Best.Point.MAC.String(),
					fmt.Sprintf("%d", pt.Best.Point.TxMode),
					report.F(pt.Best.PDR, 6), report.F(pt.Best.NLTDays, 4),
					report.F(pt.Best.PowerMW, 6),
					report.F(pt.Best.MeanLatency, 8), report.F(pt.Best.P95Latency, 8),
				)
			} else {
				row = append(row, "", "", "", "", "", "", "", "", "")
			}
			row = append(row, fmt.Sprintf("%d", pt.LPIterations), fmt.Sprintf("%v", pt.Dominated))
			csvRows = append(csvRows, row)
		}
		header := []string{"pdr_min", "feasible", "locations", "routing", "mac", "txmode",
			"pdr", "nlt_days", "power_mw", "mean_latency_s", "p95_latency_s",
			"lp_pivots", "dominated"}
		if err := report.CSV(f, header, csvRows); err != nil {
			return nil, err
		}
		fmt.Fprintf(s.W, "  ε-constraint front written to %s\n", csvPath)
	}
	return res, nil
}
