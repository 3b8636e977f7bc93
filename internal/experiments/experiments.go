// Package experiments regenerates every table and figure of the paper's
// evaluation (§4), plus the ablation studies listed in DESIGN.md. Each
// experiment is a function usable from cmd/hibench, the root benchmark
// suite, and tests; all of them render human-readable tables and return
// structured results for programmatic assertions.
//
// Experiment identifiers follow DESIGN.md §4:
//
//	T1  Table 1   — CC2650 radio specification
//	F1  Figure 1  — locations and the synthesized mean path-loss matrix
//	F3  Figure 3  — PDR vs NLT scatter of all feasible configurations
//	R1  §4.2      — optimal configuration per PDRmin
//	R2  §4.2      — simulation-count reduction vs exhaustive search
//	R3  §4.2      — convergence cost vs simulated annealing
//	A1–A4         — ablations (pool size, α bound, NHops, TDMA slot)
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"

	"hiopt/internal/anneal"
	"hiopt/internal/body"
	"hiopt/internal/channel"
	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/exhaustive"
	"hiopt/internal/netsim"
	"hiopt/internal/report"
	"hiopt/internal/rng"
)

// Fidelity selects the simulation accuracy of a whole experiment run.
type Fidelity struct {
	// Duration is T_sim in seconds; Runs the averaging count.
	Duration float64
	Runs     int
	// Seed roots all randomness.
	Seed uint64
}

// Paper is the full §4 setting: 600 s averaged over 3 runs.
var Paper = Fidelity{Duration: 600, Runs: 3, Seed: 1}

// Quick trades accuracy for speed (useful on laptops and in benchmarks);
// PDR estimates carry roughly ±1% noise at this setting.
var Quick = Fidelity{Duration: 60, Runs: 1, Seed: 1}

// Suite carries the state the experiments share: one evaluation engine,
// the cached exhaustive sweep, and one Algorithm 1 optimizer whose runs
// are memoized per reliability bound.
type Suite struct {
	Fid Fidelity
	W   io.Writer
	// Mutate, when non-nil, is applied to every problem instance the
	// suite creates — the hook for running the experiment battery on a
	// modified design space (tests use it to shrink the space; users can
	// use it to add constraints or swap components).
	Mutate func(*design.Problem)
	// Adaptive enables confidence-gated evaluation in the studies whose
	// simulations feed binary decisions — the RB robustness study and
	// the FR front: scenario replications stop early once the PDR
	// confidence interval settles against the bound, and a
	// configuration's scenario family short-circuits as soon as one
	// scenario decisively breaches it. Feasibility verdicts match the
	// exhaustive run; a short-circuited row's WorstPDR/WorstScenario
	// report the decisive witness rather than the exhaustive minimum.
	// Gated results land in the suite engine's shared cache: an adaptive
	// FR writes gated full-fidelity entries that R1–R3 (the annealing
	// walks too), PF, A1 and A2 would then read, so run those studies,
	// and the exhaustive runs of RB and FR, in a suite without Adaptive
	// (hibench never sets it).
	Adaptive bool

	// eng runs every simulation of the suite except A9's, which counts
	// fresh runs.
	eng       *engine.Engine
	sweep     *exhaustive.Result
	sweepProb *design.Problem
	// opt runs every memoized Algorithm 1 bound (alg1), so its class
	// record solves each power class once across R1, R2, R3 and PF.
	opt       *core.Optimizer
	alg1Cache map[float64]*core.Outcome
}

// Sig is the fidelity's persistent-cache context signature: a cache file
// written at one (duration, runs, seed) must never answer for another
// (see engine.ContextSig).
func (f Fidelity) Sig() uint64 {
	return engine.ContextSig(f.Duration, f.Runs, f.Seed)
}

// NewSuite builds an experiment suite writing to w (os.Stdout if nil)
// whose simulations all run on eng (a fresh default engine if nil).
func NewSuite(fid Fidelity, w io.Writer, eng *engine.Engine) *Suite {
	if w == nil {
		w = os.Stdout
	}
	if eng == nil {
		eng, _ = engine.New(0) // New only fails on negative worker counts
	}
	return &Suite{Fid: fid, W: w, eng: eng}
}

// paperBounds are the reliability bounds of R1, R2, PF and the Fig. 3
// optima table.
var paperBounds = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}

// alg1 memoizes Algorithm 1 runs per reliability bound, so R1, R2, R3 and
// PF share results the way one cmd/hibench invocation does. Every bound
// runs on the suite's one optimizer, the way core.ParetoFront runs its
// bounds: each Outcome equals a standalone run's, but the class record
// solves each power class once and the suite engine answers every design
// the sweep or an earlier bound already simulated.
func (s *Suite) alg1(pdrMin float64) (*core.Outcome, error) {
	if out, ok := s.alg1Cache[pdrMin]; ok {
		return out, nil
	}
	if s.opt == nil {
		s.opt = core.NewOptimizer(s.problem(pdrMin), core.Options{Engine: s.eng})
		s.alg1Cache = make(map[float64]*core.Outcome)
	}
	s.opt.Problem.PDRMin = pdrMin
	out, err := s.opt.Run()
	if err != nil {
		return nil, err
	}
	s.alg1Cache[pdrMin] = out
	return out, nil
}

// alg1Sims is the simulator-run count of a standalone Algorithm 1 run,
// Evaluations × Runs, counted the way exhaustive.Result.Simulations is.
// A fresh engine simulates every candidate (each round's pool is a new
// power class), while out.Simulations leaves out what the shared engine
// answered from its cache.
func (s *Suite) alg1Sims(out *core.Outcome) int {
	return out.Evaluations * max(1, s.Fid.Runs)
}

// problem instantiates the §4.1 design example at the suite's fidelity.
func (s *Suite) problem(pdrMin float64) *design.Problem {
	pr := design.PaperProblem(pdrMin)
	pr.Duration = s.Fid.Duration
	pr.Runs = s.Fid.Runs
	pr.Seed = s.Fid.Seed
	if s.Mutate != nil {
		s.Mutate(pr)
	}
	return pr
}

// --- T1: Table 1 ---

// Table1 prints the CC2650 radio specification (input data of the design
// example) in the layout of the paper's Table 1.
func (s *Suite) Table1() {
	spec := s.problem(0.9).Radio
	fmt.Fprintf(s.W, "T1 / Table 1 — %s radio specification\n", spec.Name)
	rows := [][]string{
		{"fc", fmt.Sprintf("%.1f GHz", spec.CarrierGHz)},
		{"BR", fmt.Sprintf("%.0f kbps", spec.BitRateKbps)},
		{"RxdBm", fmt.Sprintf("%g dBm", float64(spec.SensitivityDBm))},
		{"RxmW", fmt.Sprintf("%g mW", float64(spec.RxConsumptionMW))},
	}
	for _, m := range spec.TxModes {
		rows = append(rows, []string{
			"Tx " + m.Name,
			fmt.Sprintf("%+g dBm / %g mW", float64(m.OutputDBm), float64(m.ConsumptionMW)),
		})
	}
	report.Table(s.W, []string{"parameter", "value"}, rows)
}

// --- F1: Figure 1 ---

// Fig1 prints the node-placement geometry and the synthesized mean
// path-loss matrix that substitutes for the paper's measured channel data.
func (s *Suite) Fig1() {
	fmt.Fprintln(s.W, "F1 / Figure 1 — candidate locations and mean path loss (dB)")
	locs := body.Default()
	ch := channel.New(locs, channel.DefaultParams(), rng.NewSource(s.Fid.Seed))
	var rows [][]string
	for _, l := range locs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", l.Index), l.Name,
			fmt.Sprintf("(%.2f, %.2f, %.2f)", l.X, l.Y, l.Z), l.Facing.String(),
		})
	}
	report.Table(s.W, []string{"#", "location", "xyz (m)", "facing"}, rows)

	headers := []string{"PL"}
	for i := range locs {
		headers = append(headers, fmt.Sprintf("%d", i))
	}
	rows = nil
	for i := range locs {
		row := []string{fmt.Sprintf("%d", i)}
		for j := range locs {
			if i == j {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.1f", float64(ch.MeanPL(i, j))))
			}
		}
		rows = append(rows, row)
	}
	report.Table(s.W, headers, rows)
}

// --- F3: Figure 3 (and the R4 summary) ---

// Fig3Row is one point of the Fig. 3 scatter.
type Fig3Row struct {
	Point    design.Point
	PDR      float64
	NLTDays  float64
	PowerMW  float64
	Feasible bool
}

// Fig3 sweeps the full feasible design space and reports the PDR-vs-NLT
// scatter (optionally also as CSV), the Fig. 3 envelope summary, and the
// per-PDRmin optima that the figure's arrows annotate.
func (s *Suite) Fig3(csvPath string) ([]Fig3Row, error) {
	res, err := s.exhaustiveSweep()
	if err != nil {
		return nil, err
	}
	rows := make([]Fig3Row, len(res.All))
	minNLT, maxNLT := res.All[0].NLTDays, res.All[0].NLTDays
	minPDR, maxPDR := res.All[0].PDR, res.All[0].PDR
	for i, e := range res.All {
		rows[i] = Fig3Row{Point: e.Point, PDR: e.PDR, NLTDays: e.NLTDays, PowerMW: e.PowerMW, Feasible: e.Feasible}
		minNLT = min(minNLT, e.NLTDays)
		maxNLT = max(maxNLT, e.NLTDays)
		minPDR = min(minPDR, e.PDR)
		maxPDR = max(maxPDR, e.PDR)
	}
	fmt.Fprintf(s.W, "F3 / Figure 3 — %d feasible configurations simulated (T=%.0fs × %d runs)\n",
		len(rows), s.Fid.Duration, s.Fid.Runs)
	fmt.Fprintf(s.W, "  PDR span: %s .. %s   (paper: 0 .. 100%%)\n", report.Pct(minPDR), report.Pct(maxPDR))
	fmt.Fprintf(s.W, "  NLT span: %s .. %s  (paper: ~2 days .. >1 month)\n", report.Days(minNLT), report.Days(maxNLT))
	fmt.Fprintf(s.W, "  engine: %s\n", res.Stats)

	// The scatter itself, star vs mesh — the terminal rendition of Fig. 3.
	var star, mesh report.ScatterSeries
	star = report.ScatterSeries{Name: "star", Mark: 'o'}
	mesh = report.ScatterSeries{Name: "mesh", Mark: 'x'}
	for _, r := range rows {
		if r.Point.Routing == netsim.Mesh {
			mesh.X = append(mesh.X, r.NLTDays)
			mesh.Y = append(mesh.Y, r.PDR*100)
		} else {
			star.X = append(star.X, r.NLTDays)
			star.Y = append(star.Y, r.PDR*100)
		}
	}
	report.Scatter(s.W, []report.ScatterSeries{star, mesh}, 64, 18,
		"network lifetime (days)", "  packet delivery ratio (%)")

	// The arrows of Fig. 3: best (max-NLT = min-power) configuration per
	// reliability threshold.
	fmt.Fprintln(s.W, "  optima per PDRmin (the figure's annotated arrows):")
	var tbl [][]string
	for _, pdrMin := range paperBounds {
		best := bestFeasible(res, pdrMin, 0.001)
		if best == nil {
			tbl = append(tbl, []string{report.Pct(pdrMin), "infeasible", "", "", ""})
			continue
		}
		tbl = append(tbl, []string{
			report.Pct(pdrMin), pointLabel(best.Point),
			report.Pct(best.PDR), report.Days(best.NLTDays), report.MW(best.PowerMW),
		})
	}
	report.Table(s.W, []string{"PDRmin", "optimal configuration", "PDR", "NLT", "power"}, tbl)

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var csvRows [][]string
		for _, r := range rows {
			csvRows = append(csvRows, []string{
				fmt.Sprintf("%v", r.Point.Locations()),
				r.Point.Routing.String(), r.Point.MAC.String(),
				fmt.Sprintf("%d", r.Point.TxMode),
				report.F(r.PDR, 6), report.F(r.NLTDays, 4), report.F(r.PowerMW, 6),
				fmt.Sprintf("%v", r.Feasible),
			})
		}
		if err := report.CSV(f, []string{"locations", "routing", "mac", "txmode", "pdr", "nlt_days", "power_mw", "feasible"}, csvRows); err != nil {
			return nil, err
		}
		fmt.Fprintf(s.W, "  scatter written to %s\n", csvPath)
	}
	return rows, nil
}

// exhaustiveSweep runs (once) and caches the full design-space sweep.
func (s *Suite) exhaustiveSweep() (*exhaustive.Result, error) {
	if s.sweep != nil {
		return s.sweep, nil
	}
	pr := s.problem(0.5) // PDRmin irrelevant for the sweep itself
	res, err := exhaustive.Search(pr, exhaustive.Options{Engine: s.eng})
	if err != nil {
		return nil, err
	}
	s.sweep = res
	s.sweepProb = pr
	return res, nil
}

// bestFeasible scans a sweep for the minimum-power entry meeting a bound.
func bestFeasible(res *exhaustive.Result, pdrMin, tol float64) *exhaustive.Entry {
	for i := range res.All {
		if res.All[i].PDR >= pdrMin-tol {
			e := res.All[i]
			return &e
		}
	}
	return nil
}

func pointLabel(p design.Point) string {
	return fmt.Sprintf("%v %s %s tx%d", p.Locations(), p.Routing, p.MAC, p.TxMode)
}

// --- R1: optima per PDRmin via Algorithm 1 ---

// R1Row is one Algorithm 1 run.
type R1Row struct {
	PDRMin      float64
	Outcome     *core.Outcome
	Best        *core.Candidate
	Evaluations int
	Simulations int
}

// R1 runs Algorithm 1 for each reliability bound and prints the selected
// configurations — the paper's qualitative sequence is star/−10 dBm at low
// bounds, star/0 dBm near 90%, mesh above, and a five-node mesh at 100%.
func (s *Suite) R1(pdrMins []float64) ([]R1Row, error) {
	if len(pdrMins) == 0 {
		pdrMins = paperBounds
	}
	fmt.Fprintln(s.W, "R1 / §4.2 — Algorithm 1 optima per PDRmin")
	var rows []R1Row
	var tbl [][]string
	for _, pdrMin := range pdrMins {
		out, err := s.alg1(pdrMin)
		if err != nil {
			return nil, err
		}
		row := R1Row{PDRMin: pdrMin, Outcome: out, Best: out.Best,
			Evaluations: out.Evaluations, Simulations: s.alg1Sims(out)}
		rows = append(rows, row)
		if out.Best == nil {
			tbl = append(tbl, []string{report.Pct(pdrMin), "infeasible", "", "", "", fmt.Sprintf("%d", row.Simulations)})
			continue
		}
		tbl = append(tbl, []string{
			report.Pct(pdrMin), pointLabel(out.Best.Point),
			report.Pct(out.Best.PDR), report.Days(out.Best.NLTDays),
			report.MW(out.Best.PowerMW), fmt.Sprintf("%d", row.Simulations),
		})
	}
	report.Table(s.W, []string{"PDRmin", "selected configuration", "PDR", "NLT", "power", "sims"}, tbl)
	return rows, nil
}

// --- R2: simulation-count reduction vs exhaustive ---

// R2Result summarizes the reduction claim.
type R2Result struct {
	Rows []R2Row
	// MeanReduction is the average fraction of simulations avoided
	// (the paper reports 87%).
	MeanReduction float64
}

// R2Row is one bound's comparison.
type R2Row struct {
	PDRMin         float64
	Alg1Sims       int
	ExhaustiveSims int
	Reduction      float64
	OptimumMatches bool
	Alg1Best       *core.Candidate
	ExhaustiveBest *exhaustive.Entry
}

// R2 compares Algorithm 1's simulation count against exhaustive search
// across the PDRmin range and checks both find the same optimum class.
func (s *Suite) R2(pdrMins []float64) (*R2Result, error) {
	if len(pdrMins) == 0 {
		pdrMins = paperBounds
	}
	fmt.Fprintln(s.W, "R2 / §4.2 — simulations: Algorithm 1 vs exhaustive search")
	sweep, err := s.exhaustiveSweep()
	if err != nil {
		return nil, err
	}
	res := &R2Result{}
	var tbl [][]string
	for _, pdrMin := range pdrMins {
		out, err := s.alg1(pdrMin)
		if err != nil {
			return nil, err
		}
		exBest := bestFeasible(sweep, pdrMin, 0.001)
		row := R2Row{
			PDRMin:         pdrMin,
			Alg1Sims:       s.alg1Sims(out),
			ExhaustiveSims: sweep.Simulations,
			Alg1Best:       out.Best,
			ExhaustiveBest: exBest,
		}
		row.Reduction = 1 - float64(row.Alg1Sims)/float64(row.ExhaustiveSims)
		// "Match" means both report the same feasibility and, when
		// feasible, the same simulated-power optimum within the noise of
		// the two searches' evaluation order (same analytic class).
		switch {
		case out.Best == nil && exBest == nil:
			row.OptimumMatches = true
		case out.Best != nil && exBest != nil:
			row.OptimumMatches = out.Best.Point == exBest.Point ||
				math.Abs(out.Best.PowerMW-exBest.PowerMW) < 0.15*exBest.PowerMW
		}
		res.Rows = append(res.Rows, row)
		res.MeanReduction += row.Reduction
		tbl = append(tbl, []string{
			report.Pct(pdrMin),
			fmt.Sprintf("%d", row.Alg1Sims),
			fmt.Sprintf("%d", row.ExhaustiveSims),
			report.Pct(row.Reduction),
			fmt.Sprintf("%v", row.OptimumMatches),
		})
	}
	res.MeanReduction /= float64(len(res.Rows))
	report.Table(s.W, []string{"PDRmin", "alg1 sims", "exhaustive sims", "reduction", "optimum matches"}, tbl)
	fmt.Fprintf(s.W, "  mean reduction: %s  (paper: 87%%)\n", report.Pct(res.MeanReduction))
	return res, nil
}

// --- R3: vs simulated annealing ---

// R3Result summarizes the annealing comparison.
type R3Result struct {
	Rows []R3Row
	// MeanSpeedup is the average SA-to-Algorithm-1 ratio of simulations
	// needed to reach the final answer (the paper reports ~3×).
	MeanSpeedup float64
}

// R3Row is one bound's comparison.
type R3Row struct {
	PDRMin        float64
	Alg1Sims      int
	SASimsToBest  int
	SASimsTotal   int
	Speedup       float64
	SAMatchesAlg1 bool
}

// R3 compares Algorithm 1 against the simulated-annealing baseline. The
// cost metric is simulations until each method reached its final answer;
// SA is averaged over three independent walks per bound, and a walk only
// "matches" when its best feasible configuration lands within 5% of
// Algorithm 1's optimal simulated power. Walks that never match charge
// their whole budget (a lower bound on their true convergence cost).
func (s *Suite) R3(pdrMins []float64, saSteps int) (*R3Result, error) {
	if len(pdrMins) == 0 {
		pdrMins = []float64{0.5, 0.7, 0.9, 1.0}
	}
	if saSteps == 0 {
		saSteps = 300
	}
	const saWalks = 3
	fmt.Fprintln(s.W, "R3 / §4.2 — Algorithm 1 vs simulated annealing")
	res := &R3Result{}
	var tbl [][]string
	for _, pdrMin := range pdrMins {
		out, err := s.alg1(pdrMin)
		if err != nil {
			return nil, err
		}
		row := R3Row{PDRMin: pdrMin, Alg1Sims: s.alg1Sims(out)}
		matched := 0
		sumToBest, sumTotal := 0, 0
		for walk := 0; walk < saWalks; walk++ {
			sa, err := anneal.New(s.problem(pdrMin),
				anneal.Options{Steps: saSteps, Seed: s.Fid.Seed + uint64(walk)*977, Engine: s.eng}).Run()
			if err != nil {
				return nil, err
			}
			sumTotal += sa.Simulations
			ok := out.Best != nil && sa.Best != nil &&
				math.Abs(sa.Best.PowerMW-out.Best.PowerMW) < 0.05*out.Best.PowerMW
			if ok {
				matched++
				sumToBest += sa.EvaluationsToBest * max(1, s.Fid.Runs)
			} else {
				sumToBest += sa.Simulations // never converged: full budget
			}
		}
		row.SASimsToBest = sumToBest / saWalks
		row.SASimsTotal = sumTotal / saWalks
		row.SAMatchesAlg1 = matched == saWalks
		if row.Alg1Sims > 0 {
			row.Speedup = float64(row.SASimsToBest) / float64(row.Alg1Sims)
		}
		res.Rows = append(res.Rows, row)
		res.MeanSpeedup += row.Speedup
		tbl = append(tbl, []string{
			report.Pct(pdrMin),
			fmt.Sprintf("%d", row.Alg1Sims),
			fmt.Sprintf("%d", row.SASimsToBest),
			fmt.Sprintf("%d", row.SASimsTotal),
			report.F(row.Speedup, 2) + "x",
			fmt.Sprintf("%d/%d", matched, saWalks),
		})
	}
	res.MeanSpeedup /= float64(len(res.Rows))
	report.Table(s.W, []string{"PDRmin", "alg1 sims", "SA sims to alg1-quality", "SA budget", "speedup", "SA converged"}, tbl)
	fmt.Fprintf(s.W, "  mean speedup: %.2fx  (paper: ~3x)\n", res.MeanSpeedup)
	return res, nil
}

// --- A1: MILP pool size ablation ---

// A1Row is one pool-cap setting.
type A1Row struct {
	PoolLimit   int
	Iterations  int
	Evaluations int
	BestPowerMW float64
}

// A1 studies the effect of capping the MILP solution pool at PDRmin=90%.
func (s *Suite) A1() ([]A1Row, error) {
	fmt.Fprintln(s.W, "A1 — ablation: MILP pool size (PDRmin=90%)")
	var rows []A1Row
	var tbl [][]string
	for _, limit := range []int{1, 4, 16, 0} {
		out, err := core.NewOptimizer(s.problem(0.9), core.Options{PoolLimit: limit, Engine: s.eng}).Run()
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", limit)
		if limit == 0 {
			label = "unlimited"
		}
		row := A1Row{PoolLimit: limit, Iterations: len(out.Iterations), Evaluations: out.Evaluations}
		if out.Best != nil {
			row.BestPowerMW = out.Best.PowerMW
		}
		rows = append(rows, row)
		tbl = append(tbl, []string{label, fmt.Sprintf("%d", row.Iterations),
			fmt.Sprintf("%d", row.Evaluations), report.MW(row.BestPowerMW)})
	}
	report.Table(s.W, []string{"pool limit", "iterations", "evaluations", "best power"}, tbl)
	return rows, nil
}

// --- A2: α-bound ablation ---

// A2Result compares evaluations with the α bound on and off.
type A2Result struct {
	WithAlpha, WithoutAlpha int
	SamePowerClass          bool
}

// A2 quantifies the work saved by the line-5 α termination at PDRmin=50%
// on the 4-node subspace (where exhaustion is affordable at any fidelity).
func (s *Suite) A2() (*A2Result, error) {
	fmt.Fprintln(s.W, "A2 — ablation: α-bound termination (PDRmin=50%, N≤4 subspace)")
	mk := func() *design.Problem {
		pr := s.problem(0.5)
		pr.Constraints.MaxNodes = 4
		return pr
	}
	with, err := core.NewOptimizer(mk(), core.Options{Engine: s.eng}).Run()
	if err != nil {
		return nil, err
	}
	without, err := core.NewOptimizer(mk(), core.Options{DisableAlphaBound: true, Engine: s.eng}).Run()
	if err != nil {
		return nil, err
	}
	res := &A2Result{WithAlpha: with.Evaluations, WithoutAlpha: without.Evaluations}
	if with.Best != nil && without.Best != nil {
		res.SamePowerClass = math.Abs(with.Best.AnalyticMW-without.Best.AnalyticMW) < 1e-9
	}
	report.Table(s.W, []string{"variant", "evaluations"}, [][]string{
		{"α bound on (Algorithm 1)", fmt.Sprintf("%d", res.WithAlpha)},
		{"α bound off (run to exhaustion)", fmt.Sprintf("%d", res.WithoutAlpha)},
	})
	fmt.Fprintf(s.W, "  same optimum class: %v\n", res.SamePowerClass)
	return res, nil
}

// --- A3: mesh hop bound ablation ---

// A3Row is one NHops setting.
type A3Row struct {
	NHops   int
	PDR     float64
	PowerMW float64
	NLTDays float64
}

// A3 sweeps the mesh flooding bound on the paper's five-node
// 100%-reliability topology.
func (s *Suite) A3() ([]A3Row, error) {
	fmt.Fprintln(s.W, "A3 — ablation: mesh hop bound ([0 1 3 5 7] Mesh TDMA 0dBm)")
	var rows []A3Row
	var tbl [][]string
	for _, h := range []int{1, 2, 3} {
		pr := s.problem(1.0)
		pr.NHops = h
		p := design.Point{Topology: 1<<0 | 1<<1 | 1<<3 | 1<<5 | 1<<7,
			TxMode: 2, MAC: netsim.TDMA, Routing: netsim.Mesh}
		res, err := s.eng.Evaluate(context.TODO(), engine.Request{
			Cfg: pr.Config(p), Runs: pr.Runs, Seed: pr.Seed,
			Label: fmt.Sprintf("A3 h=%d", h),
		})
		if err != nil {
			return nil, err
		}
		row := A3Row{NHops: h, PDR: res.PDR, PowerMW: float64(res.MaxPower), NLTDays: res.NLTDays}
		rows = append(rows, row)
		tbl = append(tbl, []string{fmt.Sprintf("%d", h), report.Pct(row.PDR),
			report.MW(row.PowerMW), report.Days(row.NLTDays)})
	}
	report.Table(s.W, []string{"NHops", "PDR", "power", "NLT"}, tbl)
	return rows, nil
}

// --- A4: TDMA slot duration ablation ---

// A4Row is one slot setting.
type A4Row struct {
	SlotMS  float64
	PDR     float64
	Drops   uint64
	PowerMW float64
}

// A4 sweeps the TDMA slot duration on a relay-heavy five-node mesh; slots
// much longer than the packet airtime throttle per-node capacity until
// relay buffers overflow.
func (s *Suite) A4() ([]A4Row, error) {
	fmt.Fprintln(s.W, "A4 — ablation: TDMA slot duration ([0 1 3 5 7] Mesh TDMA 0dBm)")
	var rows []A4Row
	var tbl [][]string
	for _, slotMS := range []float64{0.8, 1, 2, 4} {
		pr := s.problem(1.0)
		pr.SlotSeconds = slotMS / 1000
		p := design.Point{Topology: 1<<0 | 1<<1 | 1<<3 | 1<<5 | 1<<7,
			TxMode: 2, MAC: netsim.TDMA, Routing: netsim.Mesh}
		res, err := s.eng.Evaluate(context.TODO(), engine.Request{
			Cfg: pr.Config(p), Runs: pr.Runs, Seed: pr.Seed,
			Label: fmt.Sprintf("A4 slot=%vms", slotMS),
		})
		if err != nil {
			return nil, err
		}
		row := A4Row{SlotMS: slotMS, PDR: res.PDR, Drops: res.MACDrops, PowerMW: float64(res.MaxPower)}
		rows = append(rows, row)
		tbl = append(tbl, []string{fmt.Sprintf("%.1f ms", slotMS), report.Pct(row.PDR),
			fmt.Sprintf("%d", row.Drops), report.MW(row.PowerMW)})
	}
	report.Table(s.W, []string{"slot", "PDR", "MAC drops", "power"}, tbl)
	return rows, nil
}
