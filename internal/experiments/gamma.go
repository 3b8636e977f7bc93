package experiments

import (
	"fmt"
	"os"

	"hiopt/internal/core"
	"hiopt/internal/report"
)

// GammaRow is one Γ point of the robustness price curve: what protecting
// against Γ simultaneous coefficient deviations costs in power and
// lifetime, and how much proposer effort it saves.
type GammaRow struct {
	Gamma  float64
	Status core.Status
	// Best summarizes the selected design (zero-valued when none).
	Best     string
	PowerMW  float64
	NLTDays  float64
	WorstPDR float64
	// Iterations is the number of RunMILP → RunSim rounds the search
	// used; ItersToFirstRobust is the 1-based round in which the first
	// robust-feasible candidate appeared (0 = never — at Γ = 0 the
	// nominal oracle can spend its whole budget proposing designs the
	// fault screen rejects).
	Iterations         int
	ItersToFirstRobust int
	// RobustRejected counts nominally feasible candidates the fault
	// screen rejected; RobustFeasibleRate is the fraction of simulated
	// candidates that survived it.
	RobustRejected     int
	RobustFeasibleRate float64
	Evaluations        int
	Simulations        int
}

// Gamma runs the Γ-robust price-curve study: Algorithm 1 at each
// protection budget Γ against the same k = 1 fault-scenario verifier and
// the same robust reliability floor. Γ = 0 is the screen-and-cut
// baseline (nominal proposer, fault screen as gatekeeper); Γ >= 1
// switches the proposer to the protected relaxation, which prunes
// under-provisioned power classes before they are ever simulated. The
// rows trace both the price of robustness (power/NLT vs Γ) and the
// proposer quality (iterations to the first robust-feasible design,
// wasted robust rejections). maxIter caps each search (0 = unlimited);
// csvPath, when non-empty, receives the curve as CSV.
func (s *Suite) Gamma(gammas []float64, robustPDRMin float64, maxIter int, csvPath string) ([]GammaRow, error) {
	if len(gammas) == 0 {
		gammas = []float64{0, 1, 2, 3}
	}
	if robustPDRMin <= 0 {
		// The paper's 0.9 bound is unattainable under even one hard
		// failure at FailFrac 0.25 within MaxNodes = 6 (the PDR ceiling
		// is (N − 0.75)/N = 0.875 at N = 6), so the robust study runs
		// against the highest floor the design space can clear.
		robustPDRMin = 0.83
	}
	fmt.Fprintf(s.W, "GM — extension: Γ-robust proposer vs screen-and-cut (robust floor %s, k=1)\n",
		report.Pct(robustPDRMin))
	var rows []GammaRow
	var csvRows [][]string
	for _, gamma := range gammas {
		opts := core.Options{
			Robust: core.RobustOptions{
				Enabled:      true,
				KFailures:    1,
				PDRMin:       robustPDRMin,
				ProposeGamma: gamma,
			},
			MaxIterations: maxIter,
			AdaptiveReps:  true,
			Engine:        s.eng,
		}
		out, err := core.NewOptimizer(s.problem(0.9), opts).Run()
		if err != nil {
			return nil, err
		}
		row := GammaRow{
			Gamma:       gamma,
			Status:      out.Status,
			Iterations:  len(out.Iterations),
			Evaluations: out.Evaluations,
			Simulations: out.Simulations,

			RobustRejected: out.RobustRejected,
		}
		candidates := 0
		feasible := 0
		for i, it := range out.Iterations {
			candidates += len(it.Candidates)
			feasible += it.FeasibleCount
			if it.FeasibleCount > 0 && row.ItersToFirstRobust == 0 {
				row.ItersToFirstRobust = i + 1
			}
		}
		if candidates > 0 {
			row.RobustFeasibleRate = float64(feasible) / float64(candidates)
		}
		if out.Best != nil {
			row.Best = pointLabel(out.Best.Point)
			row.PowerMW = out.Best.PowerMW
			row.NLTDays = out.Best.NLTDays
			row.WorstPDR = out.Best.WorstPDR
		}
		rows = append(rows, row)
	}
	var tbl [][]string
	for _, r := range rows {
		best := r.Best
		if best == "" {
			best = "none"
		}
		first := "never"
		if r.ItersToFirstRobust > 0 {
			first = fmt.Sprintf("%d", r.ItersToFirstRobust)
		}
		tbl = append(tbl, []string{
			report.F(r.Gamma, 3), r.Status.String(), best,
			report.F(r.PowerMW, 4), report.Days(r.NLTDays), report.Pct(r.WorstPDR),
			first, fmt.Sprintf("%d", r.RobustRejected),
			report.Pct(r.RobustFeasibleRate), fmt.Sprintf("%d", r.Iterations),
		})
	}
	report.Table(s.W, []string{"Γ", "status", "robust design", "power mW", "NLT",
		"worst PDR", "1st robust iter", "robust rejected", "feasible rate", "iters"}, tbl)
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		for _, r := range rows {
			csvRows = append(csvRows, []string{
				report.F(r.Gamma, 6), r.Status.String(), r.Best,
				report.F(r.PowerMW, 6), report.F(r.NLTDays, 4), report.F(r.WorstPDR, 6),
				fmt.Sprintf("%d", r.ItersToFirstRobust), fmt.Sprintf("%d", r.RobustRejected),
				report.F(r.RobustFeasibleRate, 6),
				fmt.Sprintf("%d", r.Iterations), fmt.Sprintf("%d", r.Evaluations),
				fmt.Sprintf("%d", r.Simulations),
			})
		}
		header := []string{"gamma", "status", "best", "power_mw", "nlt_days", "worst_pdr",
			"iters_to_first_robust", "robust_rejected", "robust_feasible_rate",
			"iterations", "evaluations", "simulations"}
		if err := report.CSV(f, header, csvRows); err != nil {
			return nil, err
		}
		fmt.Fprintf(s.W, "  Γ price curve written to %s\n", csvPath)
	}
	return rows, nil
}
