package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/exhaustive"
	"hiopt/internal/netsim"
)

// testFid is a minimal-cost fidelity for experiment plumbing tests; the
// statistical assertions here are deliberately loose (shape only).
var testFid = Fidelity{Duration: 10, Runs: 1, Seed: 1}

func newTestSuite() (*Suite, *bytes.Buffer) {
	var b bytes.Buffer
	return NewSuite(testFid, &b, nil), &b
}

func TestTable1Output(t *testing.T) {
	s, b := newTestSuite()
	s.Table1()
	out := b.String()
	for _, want := range []string{"CC2650", "2.4 GHz", "1024 kbps", "-97 dBm", "17.7 mW", "p1", "p2", "p3", "18.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Output(t *testing.T) {
	s, b := newTestSuite()
	s.Fig1()
	out := b.String()
	for _, want := range []string{"chest", "right-ankle", "back", "PL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 output missing %q", want)
		}
	}
	// The matrix must include the deep ankle-back entry (>100 dB).
	if !strings.Contains(out, "107.4") {
		t.Errorf("Fig1 path-loss matrix missing the extreme entries:\n%s", out)
	}
}

func TestA3HopPowerMonotone(t *testing.T) {
	s, _ := newTestSuite()
	rows, err := s.A3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("A3 rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PowerMW <= rows[i-1].PowerMW {
			t.Errorf("NHops=%d power %v not above NHops=%d", rows[i].NHops, rows[i].PowerMW, rows[i-1].NHops)
		}
	}
}

func TestA4SlotCapacityCollapse(t *testing.T) {
	s, _ := newTestSuite()
	rows, err := s.A4()
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.Drops == 0 {
		t.Error("4 ms slots produced no buffer drops on the relay-heavy mesh")
	}
	if last.PDR >= rows[1].PDR {
		t.Errorf("capacity collapse not visible: PDR %v at 4 ms vs %v at 1 ms", last.PDR, rows[1].PDR)
	}
}

func TestA6LatencyShapes(t *testing.T) {
	s, _ := newTestSuite()
	rows, err := s.A6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("A6 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanLatency <= 0 || r.MeanLatency > r.MaxLatency {
			t.Errorf("%s: implausible latency profile %+v", r.Label, r)
		}
	}
	// TDMA star must be slower than CSMA star (slot waiting).
	if rows[1].MeanLatency <= rows[0].MeanLatency {
		t.Errorf("TDMA star latency %v not above CSMA star %v", rows[1].MeanLatency, rows[0].MeanLatency)
	}
}

func TestA7FailureAsymmetry(t *testing.T) {
	s, _ := newTestSuite()
	rows, err := s.A7()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]A7Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.FailedPDR > r.HealthyPDR+0.02 {
			t.Errorf("%s: failure improved PDR?!", r.Label)
		}
	}
	starHub := byLabel["star, coordinator (chest) fails"]
	meshHub := byLabel["mesh, relay (chest) fails"]
	// Losing the hub must hurt the star far more than losing the same
	// node hurts the mesh.
	starLoss := starHub.HealthyPDR - starHub.FailedPDR
	meshLoss := meshHub.HealthyPDR - meshHub.FailedPDR
	if starLoss <= meshLoss {
		t.Errorf("star hub loss %.3f not above mesh relay loss %.3f", starLoss, meshLoss)
	}
}

func TestA8IdleListeningCost(t *testing.T) {
	s, _ := newTestSuite()
	res, err := s.A8()
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleListenNLTDays > 2 {
		t.Errorf("always-on receiver lifetime %v days, want < 2", res.IdleListenNLTDays)
	}
	if res.DutyCycledNLTDays < 10*res.IdleListenNLTDays {
		t.Errorf("duty cycling should buy >10x lifetime: %v vs %v days",
			res.DutyCycledNLTDays, res.IdleListenNLTDays)
	}
}

func TestPFMonotone(t *testing.T) {
	s, _ := newTestSuite()
	front, err := s.PF([]float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 2 {
		t.Fatalf("front size = %d", len(front))
	}
	if front[0].Best == nil || front[1].Best == nil {
		t.Fatal("front has infeasible points at modest bounds")
	}
	if front[1].Best.NLTDays > front[0].Best.NLTDays+1e-9 {
		t.Errorf("tightening the bound extended lifetime: %v -> %v days",
			front[0].Best.NLTDays, front[1].Best.NLTDays)
	}
	// Shared cache: the second bound must have been cheaper than the
	// first (its early power classes were already simulated).
	if front[1].Outcome.Simulations >= front[0].Outcome.Simulations+front[1].Outcome.Evaluations {
		t.Errorf("cache sharing ineffective: %d then %d sims",
			front[0].Outcome.Simulations, front[1].Outcome.Simulations)
	}
}

// miniSuite restricts the design space to 4-node topologies so the
// optimizer-heavy experiments stay affordable in tests.
func miniSuite() (*Suite, *bytes.Buffer) {
	var b bytes.Buffer
	s := NewSuite(Fidelity{Duration: 10, Runs: 1, Seed: 1}, &b, nil)
	s.Mutate = func(pr *design.Problem) { pr.Constraints.MaxNodes = 4 }
	return s, &b
}

func TestR2ReductionOnMiniSpace(t *testing.T) {
	s, _ := miniSuite()
	res, err := s.R2([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r.ExhaustiveSims != 96 { // 8 topologies × 12 protocol combos × 1 run
		t.Errorf("exhaustive sims = %d, want 96", r.ExhaustiveSims)
	}
	if r.Alg1Sims >= r.ExhaustiveSims {
		t.Errorf("no reduction: %d vs %d", r.Alg1Sims, r.ExhaustiveSims)
	}
	if !r.OptimumMatches {
		t.Error("Algorithm 1 and exhaustive disagree on the mini space")
	}
}

func TestR3ComparesAgainstAnnealing(t *testing.T) {
	s, b := miniSuite()
	res, err := s.R3([]float64{0.5}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].SASimsTotal == 0 {
		t.Fatalf("R3 rows = %+v", res.Rows)
	}
	if !strings.Contains(b.String(), "mean speedup") {
		t.Error("R3 summary line missing")
	}
}

func TestA1PoolCapsRespected(t *testing.T) {
	s, _ := miniSuite()
	rows, err := s.A1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Evaluations > rows[3].Evaluations {
		t.Errorf("pool=1 used more evaluations (%d) than unlimited (%d)",
			rows[0].Evaluations, rows[3].Evaluations)
	}
}

func TestA2AlphaSavings(t *testing.T) {
	s, _ := miniSuite()
	res, err := s.A2()
	if err != nil {
		t.Fatal(err)
	}
	if res.WithAlpha > res.WithoutAlpha {
		t.Errorf("α bound increased evaluations: %d vs %d", res.WithAlpha, res.WithoutAlpha)
	}
}

func TestA5RunsAllRadios(t *testing.T) {
	s, b := miniSuite()
	rows, err := s.A5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("radio rows = %d", len(rows))
	}
	for _, want := range []string{"CC2650", "nRF51822", "CC2541"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("A5 output missing %s", want)
		}
	}
}

func TestA9ScreeningSaves(t *testing.T) {
	s, _ := miniSuite()
	res, err := s.A9()
	if err != nil {
		t.Fatal(err)
	}
	if res.TwoStageSeconds >= res.SingleSeconds {
		t.Errorf("screening saved nothing: %v vs %v", res.TwoStageSeconds, res.SingleSeconds)
	}
}

func TestA10AccessModes(t *testing.T) {
	s, _ := newTestSuite()
	rows, err := s.A10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PDR <= 0 || r.PDR > 1 {
			t.Errorf("%s: PDR %v", r.Mode, r.PDR)
		}
	}
}

func TestA11BufferMonotone(t *testing.T) {
	s, _ := newTestSuite()
	rows, err := s.A11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Drops <= rows[len(rows)-1].Drops {
		t.Errorf("tiny buffer dropped %d, big buffer %d — want tiny >> big",
			rows[0].Drops, rows[len(rows)-1].Drops)
	}
}

func TestFig3CSVWritten(t *testing.T) {
	s, _ := miniSuite()
	path := t.TempDir() + "/fig3.csv"
	rows, err := s.Fig3(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 96 {
		t.Fatalf("rows = %d, want 96", len(rows))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 97 { // header + 96 rows
		t.Errorf("CSV has %d lines, want 97", lines)
	}
	if !strings.HasPrefix(string(data), "locations,routing,mac,txmode,pdr,nlt_days,power_mw,feasible") {
		t.Error("CSV header wrong")
	}
}

func TestAlg1Memoization(t *testing.T) {
	s, _ := newTestSuite()
	a, err := s.alg1(0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.alg1(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("alg1 results not memoized")
	}
}

func TestR1TableRendersSelections(t *testing.T) {
	s, b := newTestSuite()
	rows, err := s.R1([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Best == nil {
		t.Fatalf("R1 rows = %+v", rows)
	}
	if !strings.Contains(b.String(), "Star") {
		t.Errorf("R1 output missing the selected topology:\n%s", b.String())
	}
}

// TestRBAdaptiveMatchesExhaustiveVerdicts: the adaptive RB study must
// reach the same nominal/robust feasibility verdicts as the exhaustive
// one (at Runs = 1 the rep gate never fires, so evaluated scenarios are
// bit-identical and only the family short-circuit differs) while
// skipping at least a quarter of the scenario-family simulated seconds.
func TestRBAdaptiveMatchesExhaustiveVerdicts(t *testing.T) {
	ex, _ := newTestSuite()
	exRes, err := ex.RB([]int{1}, 0.9, "")
	if err != nil {
		t.Fatal(err)
	}
	ad, adBuf := newTestSuite()
	ad.Adaptive = true
	adRes, err := ad.RB([]int{1}, 0.9, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(exRes) != 1 || len(adRes) != 1 {
		t.Fatalf("want one result each, got %d and %d", len(exRes), len(adRes))
	}
	e, a := exRes[0], adRes[0]
	if e.NominallyFeasible != a.NominallyFeasible || e.RobustFeasible != a.RobustFeasible {
		t.Fatalf("verdict counts diverged: exhaustive %d/%d, adaptive %d/%d",
			e.RobustFeasible, e.NominallyFeasible, a.RobustFeasible, a.NominallyFeasible)
	}
	if len(e.Rows) != len(a.Rows) {
		t.Fatalf("row counts diverged: %d vs %d", len(e.Rows), len(a.Rows))
	}
	totalScen, evaluated := 0, 0
	for i := range e.Rows {
		er, ar := e.Rows[i], a.Rows[i]
		if er.Point != ar.Point {
			t.Fatalf("row %d: points diverged: %v vs %v", i, er.Point, ar.Point)
		}
		if er.RobustFeasible != ar.RobustFeasible {
			t.Fatalf("row %d (%v): robust verdict flipped: %v vs %v",
				i, er.Point, er.RobustFeasible, ar.RobustFeasible)
		}
		// A surviving family was evaluated in full, so its envelope is
		// bit-identical; a sealed one reports a decisive witness, which
		// must itself breach the bound.
		if ar.RobustFeasible && (ar.WorstPDR != er.WorstPDR || ar.WorstScenario != er.WorstScenario) {
			t.Fatalf("row %d (%v): surviving family's envelope diverged: %.6f/%q vs %.6f/%q",
				i, er.Point, ar.WorstPDR, ar.WorstScenario, er.WorstPDR, er.WorstScenario)
		}
		if !ar.RobustFeasible && ar.WorstPDR >= 0.9-0.001 {
			t.Fatalf("row %d (%v): sealed without a breaching witness (worst %.6f)", i, er.Point, ar.WorstPDR)
		}
		// k = 1 family size: one scenario per non-coordinator node.
		n := er.Point.N()
		if er.Point.Routing == netsim.Star {
			n--
		}
		totalScen += n
	}
	if e.RobustBest == nil != (a.RobustBest == nil) {
		t.Fatalf("robust choice existence diverged: %v vs %v", e.RobustBest, a.RobustBest)
	}
	if a.RobustBest != nil && a.RobustBest.Point != e.RobustBest.Point {
		t.Fatalf("robust choice moved: %v vs %v", a.RobustBest.Point, e.RobustBest.Point)
	}
	out := adBuf.String()
	if !strings.Contains(out, "scenario evaluations skipped") {
		t.Fatalf("adaptive RB output missing the savings line:\n%s", out)
	}
	var skipped, runs int
	var seconds float64
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "scenario evaluations skipped") {
			if _, err := fmt.Sscanf(strings.TrimSpace(line),
				"adaptive: %d scenario evaluations skipped — %d runs (%g s simulated) avoided",
				&skipped, &runs, &seconds); err != nil {
				t.Fatalf("cannot parse savings line %q: %v", line, err)
			}
		}
	}
	evaluated = totalScen - skipped
	if skipped <= 0 || seconds <= 0 {
		t.Fatalf("adaptive RB skipped nothing: %d scenarios, %g s", skipped, seconds)
	}
	if frac := float64(skipped) / float64(totalScen); frac < 0.25 {
		t.Fatalf("adaptive RB skipped only %.1f%% of %d scenario evaluations (%d evaluated)",
			100*frac, totalScen, evaluated)
	}
}

func TestRBNominalVsRobust(t *testing.T) {
	s, b := newTestSuite()
	csvPath := filepath.Join(t.TempDir(), "rb.csv")
	results, err := s.RB([]int{1}, 0.9, csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].K != 1 {
		t.Fatalf("want one k=1 result, got %+v", results)
	}
	r := results[0]
	if r.NominallyFeasible == 0 {
		t.Fatal("no nominally feasible configurations entered the comparison")
	}
	if r.RobustFeasible > r.NominallyFeasible {
		t.Fatalf("robust-feasible %d exceeds nominally feasible %d", r.RobustFeasible, r.NominallyFeasible)
	}
	// The PR's acceptance criterion: the comparison must expose at least
	// one nominally feasible configuration that is worst-case infeasible.
	if r.RobustFeasible == r.NominallyFeasible {
		t.Fatal("every nominally feasible configuration survived its worst case")
	}
	sawDrop := false
	for _, row := range r.Rows {
		if row.WorstPDR > row.NominalPDR+1e-9 {
			t.Fatalf("%v: worst-case PDR %v above nominal %v", row.Point, row.WorstPDR, row.NominalPDR)
		}
		if !row.RobustFeasible && row.WorstScenario == "" {
			t.Fatalf("%v: infeasible row lacks a worst-scenario label", row.Point)
		}
		if !row.RobustFeasible {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Fatal("no row marked robust-infeasible despite the count mismatch")
	}
	if r.NominalBest == nil {
		t.Fatal("nominal best missing")
	}
	if r.RobustBest != nil && r.RobustBest.PowerMW < r.NominalBest.PowerMW {
		t.Fatalf("robust best (%v mW) cheaper than nominal best (%v mW)",
			r.RobustBest.PowerMW, r.NominalBest.PowerMW)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "k,locations,routing,mac,txmode,nominal_pdr,worst_pdr,") {
		t.Fatalf("unexpected CSV header: %.80s", data)
	}
	if !strings.Contains(b.String(), "nominal choice") || !strings.Contains(b.String(), "robust choice") {
		t.Fatalf("RB table missing design-rule rows:\n%s", b.String())
	}
}

// TestCrossLayerCacheSharing: an exhaustive sweep warm-fills a shared
// engine so a subsequent Algorithm 1 run over the same space resolves
// every candidate from the cache — the cross-layer reuse the unified
// engine exists for.
func TestCrossLayerCacheSharing(t *testing.T) {
	eng, err := engine.New(2)
	if err != nil {
		t.Fatal(err)
	}
	mkProblem := func() *design.Problem {
		pr := design.PaperProblem(0.5)
		pr.Duration = testFid.Duration
		pr.Runs = testFid.Runs
		pr.Seed = testFid.Seed
		pr.Constraints.MaxNodes = 4
		return pr
	}
	sweep, err := exhaustive.Search(mkProblem(), exhaustive.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Stats.Simulated == 0 {
		t.Fatal("sweep did not warm the shared engine")
	}
	out, err := core.NewOptimizer(mkProblem(), core.Options{Engine: eng}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine.Simulated != 0 {
		t.Fatalf("optimizer re-simulated %d points despite the warm shared cache", out.Engine.Simulated)
	}
	if out.Engine.CacheHits == 0 {
		t.Fatal("optimizer reported no cache hits against the warm engine")
	}
	if out.Best == nil || sweep.Best == nil || out.Best.Point != sweep.Best.Point {
		t.Fatalf("shared-cache optimum diverged: alg1 %+v vs sweep %+v", out.Best, sweep.Best)
	}
}
