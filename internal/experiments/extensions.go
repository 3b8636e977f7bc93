package experiments

import (
	"context"
	"fmt"
	"os"

	"hiopt/internal/body"
	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/exhaustive"
	"hiopt/internal/fault"
	"hiopt/internal/mac"
	"hiopt/internal/netsim"
	"hiopt/internal/radio"
	"hiopt/internal/report"
	"hiopt/internal/rng"
)

// This file holds the extension studies beyond the paper's evaluation:
// component-library exploration (A5), end-to-end latency (A6), failure
// robustness (A7), idle-listening energy (A8), and the Pareto front (PF).
// They exercise the optional features DESIGN.md lists as extensions.

// A5Row is one radio's optimization result.
type A5Row struct {
	Radio   string
	Best    *core.Candidate
	PDR     float64
	NLTDays float64
}

// A5 re-runs Algorithm 1 at PDRmin=90% for each radio in the component
// library — the platform-based-design promise of the paper's framework:
// swap a library component, re-map the system. Engine keys do not carry
// the radio, so each radio's runs use their own cache namespace of the
// suite engine.
func (s *Suite) A5() ([]A5Row, error) {
	fmt.Fprintln(s.W, "A5 — extension: component library sweep (PDRmin=90%)")
	var rows []A5Row
	var tbl [][]string
	for _, spec := range radio.Library() {
		pr := s.problem(0.9)
		pr.Radio = spec
		out, err := core.NewOptimizer(pr, core.Options{
			Engine:    s.eng,
			CacheSalt: uint64(rng.KeyOf("radio/" + spec.Name)),
		}).Run()
		if err != nil {
			return nil, err
		}
		row := A5Row{Radio: spec.Name, Best: out.Best}
		if out.Best != nil {
			row.PDR = out.Best.PDR
			row.NLTDays = out.Best.NLTDays
			tbl = append(tbl, []string{spec.Name, pointLabel(out.Best.Point),
				report.Pct(row.PDR), report.Days(row.NLTDays)})
		} else {
			tbl = append(tbl, []string{spec.Name, "infeasible", "", ""})
		}
		rows = append(rows, row)
	}
	report.Table(s.W, []string{"radio", "optimal configuration", "PDR", "NLT"}, tbl)
	return rows, nil
}

// A6Row is one configuration's latency profile.
type A6Row struct {
	Label       string
	MeanLatency float64
	P95Latency  float64
	MaxLatency  float64
	PDR         float64
}

// A6 measures end-to-end delivery latency across the protocol corners —
// the metric the paper defers to future work but that a deployment (e.g.
// closed-loop actuation) needs alongside PDR and lifetime.
func (s *Suite) A6() ([]A6Row, error) {
	fmt.Fprintln(s.W, "A6 — extension: end-to-end latency across protocol corners")
	corners := []design.Point{
		{Topology: 0b1001011, TxMode: 2, MAC: netsim.CSMA, Routing: netsim.Star},
		{Topology: 0b1001011, TxMode: 2, MAC: netsim.TDMA, Routing: netsim.Star},
		{Topology: 0b1001011, TxMode: 2, MAC: netsim.CSMA, Routing: netsim.Mesh},
		{Topology: 0b1001011, TxMode: 2, MAC: netsim.TDMA, Routing: netsim.Mesh},
	}
	var rows []A6Row
	var tbl [][]string
	for _, p := range corners {
		pr := s.problem(0.9)
		res, err := s.eng.Evaluate(context.TODO(), engine.Request{
			Cfg: pr.Config(p), Runs: pr.Runs, Seed: pr.Seed,
			Label: "A6 " + pointLabel(p),
		})
		if err != nil {
			return nil, err
		}
		row := A6Row{Label: pointLabel(p), MeanLatency: res.MeanLatency,
			P95Latency: res.P95Latency, MaxLatency: res.MaxLatency, PDR: res.PDR}
		rows = append(rows, row)
		tbl = append(tbl, []string{row.Label,
			fmt.Sprintf("%.2f ms", row.MeanLatency*1000),
			fmt.Sprintf("%.2f ms", row.P95Latency*1000),
			fmt.Sprintf("%.2f ms", row.MaxLatency*1000),
			report.Pct(row.PDR)})
	}
	report.Table(s.W, []string{"configuration", "mean", "p95", "max", "PDR"}, tbl)
	return rows, nil
}

// A7Row is one failure scenario.
type A7Row struct {
	Label      string
	HealthyPDR float64
	FailedPDR  float64
}

// A7 injects a mid-run node failure into a star and a mesh of the same
// placement: the star collapses with its coordinator while the mesh
// degrades gracefully — the robustness argument behind the paper's mesh
// option.
func (s *Suite) A7() ([]A7Row, error) {
	fmt.Fprintln(s.W, "A7 — extension: failure robustness (node dies at T/4)")
	type scenario struct {
		label   string
		routing netsim.RoutingKind
		fail    int
	}
	scenarios := []scenario{
		{"star, coordinator (chest) fails", netsim.Star, body.Chest},
		{"star, leaf (wrist) fails", netsim.Star, body.LeftWrist},
		{"mesh, relay (chest) fails", netsim.Mesh, body.Chest},
		{"mesh, relay (wrist) fails", netsim.Mesh, body.LeftWrist},
	}
	var rows []A7Row
	var tbl [][]string
	for _, sc := range scenarios {
		pr := s.problem(0.9)
		p := design.Point{Topology: 0b11001011, TxMode: 2, MAC: netsim.TDMA, Routing: sc.routing}
		cfg := pr.Config(p)
		healthy, err := s.eng.Evaluate(context.TODO(), engine.Request{
			Cfg: cfg, Runs: pr.Runs, Seed: pr.Seed, Label: "A7 healthy " + sc.label,
		})
		if err != nil {
			return nil, err
		}
		cfg.Failures = []netsim.NodeFailure{{Location: sc.fail, At: cfg.Duration / 4}}
		failed, err := s.eng.Evaluate(context.TODO(), engine.Request{
			Cfg: cfg, Runs: pr.Runs, Seed: pr.Seed, Label: "A7 failed " + sc.label,
		})
		if err != nil {
			return nil, err
		}
		row := A7Row{Label: sc.label, HealthyPDR: healthy.PDR, FailedPDR: failed.PDR}
		rows = append(rows, row)
		tbl = append(tbl, []string{sc.label, report.Pct(row.HealthyPDR), report.Pct(row.FailedPDR),
			report.Pct(row.HealthyPDR - row.FailedPDR)})
	}
	report.Table(s.W, []string{"scenario", "healthy PDR", "after failure", "loss"}, tbl)
	return rows, nil
}

// A8Result compares duty-cycled and always-listening radios.
type A8Result struct {
	DutyCycledNLTDays float64
	IdleListenNLTDays float64
}

// A8 quantifies the paper's implicit duty-cycling assumption: with the
// receive chain always on (no wake-up receiver), lifetime falls from
// weeks to under two days regardless of any other design choice.
func (s *Suite) A8() (*A8Result, error) {
	fmt.Fprintln(s.W, "A8 — extension: duty-cycled vs always-on receiver")
	pr := s.problem(0.9)
	p := design.Point{Topology: 0b1001011, TxMode: 2, MAC: netsim.TDMA, Routing: netsim.Star}
	cfg := pr.Config(p)
	duty, err := s.eng.Evaluate(context.TODO(), engine.Request{
		Cfg: cfg, Runs: pr.Runs, Seed: pr.Seed, Label: "A8 duty-cycled",
	})
	if err != nil {
		return nil, err
	}
	cfg.IdleListening = true
	idle, err := s.eng.Evaluate(context.TODO(), engine.Request{
		Cfg: cfg, Runs: pr.Runs, Seed: pr.Seed, Label: "A8 idle-listening",
	})
	if err != nil {
		return nil, err
	}
	res := &A8Result{DutyCycledNLTDays: duty.NLTDays, IdleListenNLTDays: idle.NLTDays}
	report.Table(s.W, []string{"receiver model", "worst-node power", "lifetime"}, [][]string{
		{"duty-cycled (paper's assumption)", report.MW(float64(duty.MaxPower)), report.Days(duty.NLTDays)},
		{"always listening", report.MW(float64(idle.MaxPower)), report.Days(idle.NLTDays)},
	})
	return res, nil
}

// A9Result compares single-stage and two-stage candidate evaluation.
type A9Result struct {
	SingleSeconds, TwoStageSeconds float64
	ScreenedOut                    int
	SameClass                      bool
}

// A9 measures the two-stage screening extension at PDRmin=90%: clearly
// infeasible candidates are rejected on a 5×-cheaper simulation, cutting
// total simulated time without moving the optimum.
func (s *Suite) A9() (*A9Result, error) {
	fmt.Fprintln(s.W, "A9 — extension: two-stage candidate screening (PDRmin=90%)")
	// Private engines: the table reports fresh simulated seconds, which a
	// warm suite engine would zero.
	single, err := core.NewOptimizer(s.problem(0.9), core.Options{}).Run()
	if err != nil {
		return nil, err
	}
	two, err := core.NewOptimizer(s.problem(0.9), core.Options{TwoStage: true}).Run()
	if err != nil {
		return nil, err
	}
	res := &A9Result{
		SingleSeconds:   single.SimulatedSeconds,
		TwoStageSeconds: two.SimulatedSeconds,
		ScreenedOut:     two.ScreenedOut,
	}
	if single.Best != nil && two.Best != nil {
		res.SameClass = single.Best.AnalyticMW == two.Best.AnalyticMW
	}
	report.Table(s.W, []string{"variant", "simulated seconds", "screened out"}, [][]string{
		{"single-stage (Algorithm 1)", report.F(res.SingleSeconds, 0), "-"},
		{"two-stage screening", report.F(res.TwoStageSeconds, 0), fmt.Sprintf("%d", res.ScreenedOut)},
	})
	fmt.Fprintf(s.W, "  same optimum class: %v; simulated-time saving: %s\n",
		res.SameClass, report.Pct(1-res.TwoStageSeconds/res.SingleSeconds))
	return res, nil
}

// A10Row is one CSMA access mode's outcome.
type A10Row struct {
	Mode       string
	PDR        float64
	Collisions uint64
}

// A10 compares the CSMA access modes of χ_MAC's AM field on a
// relay-heavy mesh: after a flood burst, 1-persistent waiters all seize
// the idle edge together and collide, while the non-persistent random
// backoff (the design example's choice) decorrelates them.
func (s *Suite) A10() ([]A10Row, error) {
	fmt.Fprintln(s.W, "A10 — extension: CSMA access modes ([0 1 3 5 7] Mesh CSMA 0dBm)")
	modes := []struct {
		label string
		am    mac.AccessMode
	}{
		{"non-persistent", mac.NonPersistent},
		{"1-persistent", mac.OnePersistent},
		{"p-persistent (p=0.5)", mac.PPersistent},
	}
	var rows []A10Row
	var tbl [][]string
	for _, m := range modes {
		pr := s.problem(0.9)
		p := design.Point{Topology: 0b10101011, TxMode: 2, MAC: netsim.CSMA, Routing: netsim.Mesh}
		cfg := pr.Config(p)
		cfg.CSMAParams.AccessMode = m.am
		res, err := s.eng.Evaluate(context.TODO(), engine.Request{
			Cfg: cfg, Runs: pr.Runs, Seed: pr.Seed, Label: "A10 " + m.label,
		})
		if err != nil {
			return nil, err
		}
		row := A10Row{Mode: m.label, PDR: res.PDR, Collisions: res.Collisions}
		rows = append(rows, row)
		tbl = append(tbl, []string{m.label, report.Pct(row.PDR), fmt.Sprintf("%d", row.Collisions)})
	}
	report.Table(s.W, []string{"access mode", "PDR", "collisions"}, tbl)
	return rows, nil
}

// A11Row is one MAC buffer capacity's outcome.
type A11Row struct {
	BufferCap int
	PDR       float64
	Drops     uint64
}

// A11 sweeps the MAC transmit-buffer size B_MAC of χ_MAC on a TDMA mesh
// whose slot schedule is deliberately throttled (2.5 ms slots): small
// buffers overflow under relay bursts, large ones absorb them.
func (s *Suite) A11() ([]A11Row, error) {
	fmt.Fprintln(s.W, "A11 — extension: MAC buffer size B_MAC ([0 1 3 5 7] Mesh TDMA 0dBm, 2.5 ms slots)")
	var rows []A11Row
	var tbl [][]string
	for _, cap := range []int{2, 4, 8, 16, 64} {
		pr := s.problem(0.9)
		pr.SlotSeconds = 0.0025
		p := design.Point{Topology: 0b10101011, TxMode: 2, MAC: netsim.TDMA, Routing: netsim.Mesh}
		cfg := pr.Config(p)
		cfg.TDMABuffer = cap
		res, err := s.eng.Evaluate(context.TODO(), engine.Request{
			Cfg: cfg, Runs: pr.Runs, Seed: pr.Seed, Label: fmt.Sprintf("A11 B=%d", cap),
		})
		if err != nil {
			return nil, err
		}
		row := A11Row{BufferCap: cap, PDR: res.PDR, Drops: res.MACDrops}
		rows = append(rows, row)
		tbl = append(tbl, []string{fmt.Sprintf("%d", cap), report.Pct(row.PDR), fmt.Sprintf("%d", row.Drops)})
	}
	report.Table(s.W, []string{"B_MAC", "PDR", "MAC drops"}, tbl)
	return rows, nil
}

// PF prints the reliability–lifetime Pareto front: the Algorithm 1
// optimum per reliability bound (R1's bounds when empty), read from the
// same per-bound memo as R1, so after R1 it solves and simulates nothing.
func (s *Suite) PF(bounds []float64) ([]core.ParetoPoint, error) {
	if len(bounds) == 0 {
		bounds = paperBounds
	}
	fmt.Fprintln(s.W, "PF — extension: reliability–lifetime Pareto front (shared-cache sweep)")
	front := make([]core.ParetoPoint, len(bounds))
	var tbl [][]string
	for i, b := range bounds {
		out, err := s.alg1(b)
		if err != nil {
			return nil, err
		}
		front[i] = core.ParetoPoint{PDRMin: b, Best: out.Best, Outcome: out}
		if out.Best == nil {
			tbl = append(tbl, []string{report.Pct(b), "infeasible", "", ""})
			continue
		}
		tbl = append(tbl, []string{report.Pct(b), pointLabel(out.Best.Point),
			report.Pct(out.Best.PDR), report.Days(out.Best.NLTDays)})
	}
	report.Table(s.W, []string{"PDRmin", "configuration", "PDR", "NLT"}, tbl)
	return front, nil
}

// --- RB: nominal vs robust (worst-case) design comparison ---

// RBRow compares one nominally feasible configuration against its
// k-node-failure worst case.
type RBRow struct {
	K              int
	Point          design.Point
	NominalPDR     float64
	WorstPDR       float64
	WorstScenario  string
	NominalNLTDays float64
	WorstNLTDays   float64
	PowerMW        float64
	// RobustFeasible reports WorstPDR >= pdrMin − tol.
	RobustFeasible bool
}

// RBResult summarizes one k's nominal-vs-robust comparison.
type RBResult struct {
	K      int
	PDRMin float64
	// NominallyFeasible counts the configurations entering the
	// comparison; RobustFeasible counts how many also clear the bound in
	// the worst case.
	NominallyFeasible int
	RobustFeasible    int
	Rows              []RBRow
	// NominalBest is the minimum-power nominally feasible configuration
	// (the nominal design choice); RobustBest the minimum-power
	// robust-feasible one (the robust choice; nil when the family kills
	// every candidate).
	NominalBest *RBRow
	RobustBest  *RBRow
}

// RB runs the nominal-vs-robust Fig. 3-style comparison: every nominally
// feasible configuration of the exhaustive sweep is re-simulated under
// the k-node-failure scenario family (hard failures at a quarter of the
// horizon; the star coordinator is exempt, as the paper's hub with larger
// energy storage) and judged on its worst-case PDR. The csvPath, when
// non-empty, receives one row per (k, configuration). The k values
// default to {1, 2} — the D'Andreagiovanni-style question "which nominal
// designs survive one or two node losses?". With Suite.Adaptive the
// families are evaluated wave by wave and short-circuited on the first
// decisive breach (see the Adaptive field's caveats); the avoided work is
// reported alongside the engine stats.
func (s *Suite) RB(ks []int, pdrMin float64, csvPath string) ([]*RBResult, error) {
	if len(ks) == 0 {
		ks = []int{1, 2}
	}
	if pdrMin <= 0 {
		pdrMin = 0.9
	}
	const tol = 0.001
	sweep, err := s.exhaustiveSweep()
	if err != nil {
		return nil, err
	}
	pr := s.sweepProb
	gen := fault.ScenarioGen{Seed: s.Fid.Seed}
	engStart := s.eng.Stats()
	fmt.Fprintf(s.W, "RB — extension: nominal vs robust design under k-node failures (PDRmin=%s)\n", report.Pct(pdrMin))
	var results []*RBResult
	var csvRows [][]string
	// With Suite.Adaptive each scenario's replications are gated against
	// the bound, and a family is sealed on its first decisive breach: its
	// remaining scenarios can only deepen a worst case that is already
	// below the bound, so the verdict matches the exhaustive run's.
	var gate *netsim.Gate
	if s.Adaptive {
		gate = &netsim.Gate{PDRMin: pdrMin, Margin: tol}
	}
	skippedScen := 0
	for _, k := range ks {
		res := &RBResult{K: k, PDRMin: pdrMin}
		var entries []*exhaustive.Entry
		var fams []engine.Family
		for i := range sweep.All {
			e := &sweep.All[i]
			if e.PDR < pdrMin-tol {
				continue
			}
			res.NominallyFeasible++
			cfg := pr.Config(e.Point)
			exclude := -1
			if e.Point.Routing == netsim.Star {
				exclude = cfg.CoordinatorLoc
			}
			var fam engine.Family
			for _, sc := range gen.KNodeFailures(e.Point.Locations(), exclude, k, pr.Duration) {
				c := cfg
				c.Scenario = sc
				fam.Reqs = append(fam.Reqs, engine.Request{
					Cfg: c, Runs: pr.Runs, Seed: pr.Seed,
					Key:   engine.ScenarioKey(e.Point.Key(), sc.Key()),
					Label: fmt.Sprintf("%v under %s", e.Point, sc.Label()),
				})
			}
			entries = append(entries, e)
			fams = append(fams, fam)
		}
		rrs, skipped, err := s.eng.EvaluateFamilies(nil, fams, gate)
		if err != nil {
			return nil, err
		}
		skippedScen += skipped
		for ji, e := range entries {
			row := rbRow(k, e, rrs[ji], pdrMin, tol)
			if row.RobustFeasible {
				res.RobustFeasible++
			}
			res.Rows = append(res.Rows, row)
			// The sweep is power-sorted, so the first entries win.
			if res.NominalBest == nil {
				rc := row
				res.NominalBest = &rc
			}
			if row.RobustFeasible && res.RobustBest == nil {
				rc := row
				res.RobustBest = &rc
			}
			if csvPath != "" {
				csvRows = append(csvRows, []string{
					fmt.Sprintf("%d", k),
					fmt.Sprintf("%v", e.Point.Locations()),
					e.Point.Routing.String(), e.Point.MAC.String(),
					fmt.Sprintf("%d", e.Point.TxMode),
					report.F(row.NominalPDR, 6), report.F(row.WorstPDR, 6),
					row.WorstScenario,
					report.F(row.NominalNLTDays, 4), report.F(row.WorstNLTDays, 4),
					report.F(row.PowerMW, 6),
					fmt.Sprintf("%v", row.RobustFeasible),
				})
			}
		}
		results = append(results, res)
		fmt.Fprintf(s.W, "  k=%d: %d nominally feasible, %d survive the worst case (%d dropped)\n",
			k, res.NominallyFeasible, res.RobustFeasible, res.NominallyFeasible-res.RobustFeasible)
		if csvPath == "" {
			// No CSV sink: the per-configuration envelopes go to stdout
			// instead, so a plain `hisweep -robust` run loses nothing.
			var full [][]string
			for _, row := range res.Rows {
				full = append(full, []string{pointLabel(row.Point),
					report.Pct(row.NominalPDR), report.Pct(row.WorstPDR),
					row.WorstScenario, report.F(row.PowerMW, 4),
					fmt.Sprintf("%v", row.RobustFeasible)})
			}
			report.Table(s.W, []string{"configuration", "nominal PDR", "worst PDR",
				"worst scenario", "power mW", "robust"}, full)
		}
		var tbl [][]string
		describe := func(label string, r *RBRow) {
			if r == nil {
				tbl = append(tbl, []string{label, "none", "", "", ""})
				return
			}
			tbl = append(tbl, []string{label, pointLabel(r.Point),
				report.Pct(r.NominalPDR), report.Pct(r.WorstPDR), r.WorstScenario})
		}
		describe("nominal choice", res.NominalBest)
		describe("robust choice", res.RobustBest)
		report.Table(s.W, []string{"design rule", "configuration", "nominal PDR", "worst PDR", "worst scenario"}, tbl)
	}
	if s.Adaptive {
		skippedRuns := skippedScen * max(1, pr.Runs)
		fmt.Fprintf(s.W, "  adaptive: %d scenario evaluations skipped — %d runs (%.6g s simulated) avoided\n",
			skippedScen, skippedRuns, float64(skippedRuns)*pr.Duration)
	}
	fmt.Fprintf(s.W, "  engine: %s\n", s.eng.Stats().Sub(engStart))
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		header := []string{"k", "locations", "routing", "mac", "txmode",
			"nominal_pdr", "worst_pdr", "worst_scenario", "nominal_nlt_days", "worst_nlt_days", "power_mw", "robust_feasible"}
		if err := report.CSV(f, header, csvRows); err != nil {
			return nil, err
		}
		fmt.Fprintf(s.W, "  nominal-vs-robust comparison written to %s\n", csvPath)
	}
	return results, nil
}

// rbRow reduces one configuration's family envelope to its comparison
// row. The worst case is the minimum over the nominal run and the
// evaluated scenarios, so a scenario that only ties the nominal PDR is
// not reported as the worst one.
func rbRow(k int, e *exhaustive.Entry, rr *netsim.RobustResult, pdrMin, tol float64) RBRow {
	row := RBRow{
		K: k, Point: e.Point,
		NominalPDR: e.PDR, WorstPDR: e.PDR,
		NominalNLTDays: e.NLTDays, WorstNLTDays: e.NLTDays,
		PowerMW: e.PowerMW,
	}
	if len(rr.Scenarios) > 0 {
		if rr.WorstPDR < row.WorstPDR {
			row.WorstPDR, row.WorstScenario = rr.WorstPDR, rr.WorstScenario
		}
		row.WorstNLTDays = min(row.WorstNLTDays, rr.WorstNLTDays)
	}
	row.RobustFeasible = row.WorstPDR >= pdrMin-tol
	return row
}
