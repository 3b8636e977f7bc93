// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1RadioLibrary   — T1 (Table 1)
//	BenchmarkFig1ChannelMatrix    — F1 (Figure 1 substrate)
//	BenchmarkFig3FeasibleScatter  — F3 (Figure 3)
//	BenchmarkOptimaPerPDRmin      — R1 (§4.2 optima sequence)
//	BenchmarkAlg1VsExhaustive     — R2 (87% simulation reduction)
//	BenchmarkAlg1VsSimAnneal      — R3 (3× vs simulated annealing)
//	BenchmarkAblation*            — A1–A4 (DESIGN.md ablations)
//
// Experiment benchmarks run at a reduced fidelity (T_sim = 20 s, 1 run) so
// the whole suite completes in minutes on one core; the cmd/hibench tool
// reruns the same experiments at any fidelity including the paper's
// 600 s × 3 runs (-paper). Shape metrics (reductions, speedups, spans)
// are attached to the benchmark output via ReportMetric.
//
// Micro-benchmarks at the bottom measure the substrates themselves
// (simplex pivots, MILP pooling, DES event throughput, channel sampling).
// The ones BENCH_simcore.json records live in internal/microbench and run
// here as sub-benchmarks of BenchmarkMicro.
package hiopt_test

import (
	"context"
	"io"
	"math"
	"testing"

	"hiopt"
	"hiopt/internal/body"
	"hiopt/internal/channel"
	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/experiments"
	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
	"hiopt/internal/microbench"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
	"hiopt/internal/radio"
	"hiopt/internal/rng"
)

// benchFid is the reduced fidelity used by the experiment benchmarks.
var benchFid = experiments.Fidelity{Duration: 20, Runs: 1, Seed: 1}

// sharedSuite caches the exhaustive sweep and the Algorithm 1 runs across
// the experiment benchmarks, exactly like one cmd/hibench invocation
// does; each benchmark therefore times the *incremental* cost of its
// artifact. Micro-benchmarks below do not use it.
var sharedSuite = experiments.NewSuite(benchFid, io.Discard, nil)

func newSuite() *experiments.Suite { return sharedSuite }

// benchPDRMins is the bound set used by the R-series benchmarks — the
// endpoints and the paper's crossover region.
var benchPDRMins = []float64{0.5, 0.9, 1.0}

// --- T1 ---

func BenchmarkTable1RadioLibrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lib := radio.Library()
		if lib[0].Name != "TI CC2650" || len(lib[0].TxModes) != 3 {
			b.Fatal("radio library lost the paper's Table 1 entry")
		}
		newSuite().Table1()
	}
}

// --- F1 ---

func BenchmarkFig1ChannelMatrix(b *testing.B) {
	locs := body.Default()
	for i := 0; i < b.N; i++ {
		ch := channel.New(locs, channel.DefaultParams(), rng.NewSource(1))
		if ch.MeanPL(0, 3) < 40 {
			b.Fatal("implausible channel matrix")
		}
	}
}

// --- F3 ---

func BenchmarkFig3FeasibleScatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite()
		rows, err := s.Fig3("")
		if err != nil {
			b.Fatal(err)
		}
		minPDR, maxPDR := 1.0, 0.0
		minNLT, maxNLT := math.Inf(1), 0.0
		for _, r := range rows {
			minPDR = math.Min(minPDR, r.PDR)
			maxPDR = math.Max(maxPDR, r.PDR)
			minNLT = math.Min(minNLT, r.NLTDays)
			maxNLT = math.Max(maxNLT, r.NLTDays)
		}
		// Paper shape: PDR spans (almost) the whole range; NLT spans
		// days to a month-plus.
		if minPDR > 0.6 || maxPDR < 0.99 {
			b.Fatalf("PDR span [%v, %v] does not match Fig. 3", minPDR, maxPDR)
		}
		if minNLT > 8 || maxNLT < 28 {
			b.Fatalf("NLT span [%v, %v] days does not match Fig. 3", minNLT, maxNLT)
		}
		b.ReportMetric(float64(len(rows)), "configs")
		b.ReportMetric(minNLT, "minNLT_days")
		b.ReportMetric(maxNLT, "maxNLT_days")
	}
}

// --- R1 ---

func BenchmarkOptimaPerPDRmin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite()
		rows, err := s.R1(benchPDRMins)
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: every bound feasible; lifetime non-increasing and
		// power non-decreasing as the bound tightens; the 100% answer is
		// a mesh.
		for j, r := range rows {
			if r.Best == nil {
				b.Fatalf("PDRmin=%v infeasible", r.PDRMin)
			}
			if j > 0 && rows[j].Best.PowerMW < rows[j-1].Best.PowerMW-1e-9 {
				b.Fatalf("optimum power decreased when tightening the bound at %v", r.PDRMin)
			}
		}
		last := rows[len(rows)-1]
		if last.Best.Point.Routing != netsim.Mesh {
			b.Fatalf("PDRmin=100%% selected %v, paper selects a mesh", last.Best.Point)
		}
		first := rows[0]
		if first.Best.Point.Routing != netsim.Star || first.Best.Point.TxMode == 2 {
			b.Fatalf("PDRmin=50%% selected %v, paper selects a low-power star", first.Best.Point)
		}
		b.ReportMetric(first.Best.NLTDays, "NLT50_days")
		b.ReportMetric(last.Best.NLTDays, "NLT100_days")
	}
}

// --- R2 ---

func BenchmarkAlg1VsExhaustive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite()
		res, err := s.R2(benchPDRMins)
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: a large mean reduction in simulations (87% in the
		// paper; the band depends on fidelity and the PDRmin mix).
		if res.MeanReduction < 0.5 {
			b.Fatalf("mean reduction %.1f%% too small vs the paper's 87%%", res.MeanReduction*100)
		}
		for _, r := range res.Rows {
			if !r.OptimumMatches {
				b.Logf("note: optimum class differs at PDRmin=%v (noise at bench fidelity)", r.PDRMin)
			}
		}
		b.ReportMetric(res.MeanReduction*100, "reduction_%")
	}
}

// --- R3 ---

func BenchmarkAlg1VsSimAnneal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite()
		res, err := s.R3(benchPDRMins, 0)
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: Algorithm 1 converges with fewer simulations than
		// SA needs to reach the same answer quality (paper: ~3×). Our SA
		// baseline is deliberately strong (tuned schedule + caching) and
		// can locally win at the 100% bound where it skips the
		// optimality proof — see EXPERIMENTS.md R3 — so the hard floor
		// here is loose; the mean must still not collapse.
		if res.MeanSpeedup < 0.7 {
			b.Fatalf("mean speedup %.2fx: Algorithm 1 broadly slower than annealing", res.MeanSpeedup)
		}
		if res.MeanSpeedup < 1 {
			b.Logf("note: strong-SA baseline won on this fidelity mix (%.2fx)", res.MeanSpeedup)
		}
		b.ReportMetric(res.MeanSpeedup, "speedup_x")
	}
}

// --- A1–A4 ---

func BenchmarkAblationPoolSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("pool ablation incomplete")
		}
		b.ReportMetric(float64(rows[len(rows)-1].Evaluations), "evals_unlimited")
		b.ReportMetric(float64(rows[0].Evaluations), "evals_pool1")
	}
}

func BenchmarkAblationAlphaBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newSuite().A2()
		if err != nil {
			b.Fatal(err)
		}
		if res.WithAlpha > res.WithoutAlpha {
			b.Fatalf("α bound increased work: %d vs %d", res.WithAlpha, res.WithoutAlpha)
		}
		b.ReportMetric(float64(res.WithAlpha), "evals_with")
		b.ReportMetric(float64(res.WithoutAlpha), "evals_without")
	}
}

func BenchmarkAblationNhops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A3()
		if err != nil {
			b.Fatal(err)
		}
		// More hops must cost strictly more power.
		for j := 1; j < len(rows); j++ {
			if rows[j].PowerMW <= rows[j-1].PowerMW {
				b.Fatalf("NHops=%d power %v not above NHops=%d power %v",
					rows[j].NHops, rows[j].PowerMW, rows[j-1].NHops, rows[j-1].PowerMW)
			}
		}
		b.ReportMetric(rows[1].PDR*100, "pdr_h2_%")
	}
}

func BenchmarkAblationTDMASlot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A4()
		if err != nil {
			b.Fatal(err)
		}
		// The widest slot throttles relay capacity: drops appear and PDR
		// falls well below the 1 ms setting.
		last := rows[len(rows)-1]
		ref := rows[1]
		if last.Drops == 0 || last.PDR >= ref.PDR {
			b.Fatalf("4 ms slots should overflow relay buffers (drops=%d pdr=%v vs %v)",
				last.Drops, last.PDR, ref.PDR)
		}
		b.ReportMetric(float64(last.Drops), "drops_4ms")
	}
}

// --- extension studies (A5–A8, PF) ---

func BenchmarkExtRadioSwap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A5()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("radio sweep incomplete")
		}
		// The CC2650's best-in-library RX power must buy the longest
		// lifetime at equal reliability.
		for _, r := range rows[1:] {
			if r.Best != nil && rows[0].Best != nil && r.NLTDays > rows[0].NLTDays {
				b.Fatalf("%s outlived the CC2650 (%v > %v days) despite worse RX power",
					r.Radio, r.NLTDays, rows[0].NLTDays)
			}
		}
	}
}

func BenchmarkExtLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MeanLatency*1000, "csma_star_ms")
		b.ReportMetric(rows[1].MeanLatency*1000, "tdma_star_ms")
	}
}

func BenchmarkExtFailureRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A7()
		if err != nil {
			b.Fatal(err)
		}
		starLoss := rows[0].HealthyPDR - rows[0].FailedPDR
		meshLoss := rows[2].HealthyPDR - rows[2].FailedPDR
		// Robust shape checks (the star-vs-mesh loss *margin* is only a
		// couple of points and drowns in noise at bench fidelity): both
		// failures must hurt, and the surviving mesh must stay more
		// reliable than the surviving star.
		if starLoss <= 0 || meshLoss <= 0 {
			b.Fatalf("failures did not reduce PDR: star %v, mesh %v", starLoss, meshLoss)
		}
		if rows[2].FailedPDR <= rows[0].FailedPDR {
			b.Fatalf("post-failure mesh PDR %v not above post-failure star PDR %v",
				rows[2].FailedPDR, rows[0].FailedPDR)
		}
		b.ReportMetric(starLoss*100, "star_loss_%")
		b.ReportMetric(meshLoss*100, "mesh_loss_%")
	}
}

func BenchmarkExtIdleListening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newSuite().A8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DutyCycledNLTDays, "duty_days")
		b.ReportMetric(res.IdleListenNLTDays, "idle_days")
	}
}

func BenchmarkExtTwoStageScreening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newSuite().A9()
		if err != nil {
			b.Fatal(err)
		}
		if res.TwoStageSeconds >= res.SingleSeconds {
			b.Fatal("screening saved no simulated time")
		}
		if !res.SameClass {
			b.Log("note: screening changed the optimum class (noise at bench fidelity)")
		}
		b.ReportMetric(100*(1-res.TwoStageSeconds/res.SingleSeconds), "saving_%")
	}
}

func BenchmarkExtCSMAAccessModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A10()
		if err != nil {
			b.Fatal(err)
		}
		// Probabilistic deferral must decorrelate the flood bursts:
		// p-persistent collides distinctly less than greedy 1-persistent.
		if rows[2].Collisions >= rows[1].Collisions {
			b.Fatalf("p-persistent collisions %d not below 1-persistent %d",
				rows[2].Collisions, rows[1].Collisions)
		}
		b.ReportMetric(float64(rows[1].Collisions), "coll_1persist")
		b.ReportMetric(float64(rows[2].Collisions), "coll_ppersist")
	}
}

func BenchmarkExtBufferSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A11()
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0], rows[len(rows)-1]
		if first.Drops <= last.Drops || first.PDR >= last.PDR {
			b.Fatalf("larger buffers should absorb relay bursts: %+v vs %+v", first, last)
		}
		b.ReportMetric(first.PDR*100, "pdr_cap2_%")
		b.ReportMetric(last.PDR*100, "pdr_cap64_%")
	}
}

func BenchmarkExtParetoFront(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// A fresh front per iteration: the suite's PF reads R1's per-bound
		// memo and would time nothing. Keep to the cheap bounds here; the
		// 100% bound is exercised by BenchmarkOptimaPerPDRmin.
		pr := hiopt.NewPaperProblem(0.5)
		pr.Duration, pr.Runs, pr.Seed = benchFid.Duration, benchFid.Runs, benchFid.Seed
		front, err := hiopt.ParetoFront(pr, []float64{0.5, 0.9}, hiopt.OptimizerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j < len(front); j++ {
			if front[j].Best != nil && front[j-1].Best != nil &&
				front[j].Best.NLTDays > front[j-1].Best.NLTDays+1e-9 {
				b.Fatal("Pareto front not monotone")
			}
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkMicro runs the micro-benchmarks that BENCH_simcore.json
// records, one sub-benchmark per entry named by its key in that file
// (go test -bench Micro/engine_ runs the engine ones). hibench -benchjson
// measures the same registry.
func BenchmarkMicro(b *testing.B) {
	for _, m := range microbench.All {
		b.Run(m.Name, m.F)
	}
}

// The substrate micro-benchmarks below are not recorded in
// BENCH_simcore.json.

func BenchmarkSimplexSolve(b *testing.B) {
	// A random dense LP: 30 bounded variables, 40 ≤ rows.
	m := linexpr.NewModel()
	ids := make([]linexpr.VarID, 30)
	for i := range ids {
		ids[i] = m.NewVar("", linexpr.Continuous, 0, 10)
	}
	g := rng.NewSource(5).Stream("bench")
	for r := 0; r < 40; r++ {
		e := linexpr.Expr{}
		for _, id := range ids {
			e = e.PlusTerm(id, g.Uniform(-2, 2))
		}
		m.Add("", e, linexpr.LE, g.Uniform(1, 20))
	}
	obj := linexpr.Expr{}
	for _, id := range ids {
		obj = obj.PlusTerm(id, g.Uniform(-1, 1))
	}
	m.SetObjective(obj, false)
	c := m.Compile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMILPPoolFirstClass(b *testing.B) {
	// The MILP oracle call of Algorithm 1's first iteration: enumerate
	// the 16-member cheapest power class.
	pr := design.PaperProblem(0.9)
	for i := 0; i < b.N; i++ {
		out, err := core.FirstPool(pr)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 16 {
			b.Fatalf("pool size %d, want 16", len(out))
		}
	}
}

func BenchmarkDESStarSecond(b *testing.B) {
	// Simulate one second of the 4-node star at full traffic; report
	// event throughput.
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 2)
	cfg.Duration = 1
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := netsim.Run(cfg, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

func BenchmarkDESMeshFloodSecond(b *testing.B) {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 5, 7}, netsim.TDMA, netsim.Mesh, 2)
	cfg.Duration = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelSample(b *testing.B) {
	ch := channel.New(body.Default(), channel.DefaultParams(), rng.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.PathLossAt(float64(i)*1e-4, 0, 3)
	}
}

// BenchmarkMILPCutResolve measures the LP unit the warm kernel exists
// for: a pruning cut's right-hand side moves and the paper problem's
// root relaxation re-solves from the incumbent basis instead of from
// scratch. One op is a tighten + re-solve followed by a loosen +
// re-solve, so the solver returns to its starting state every op.
func BenchmarkMILPCutResolve(b *testing.B) {
	work, obj, err := core.CompileMILP(design.PaperProblem(0.9))
	if err != nil {
		b.Fatal(err)
	}
	work.AddExprRow("prune", obj, linexpr.GE, 0) // loose: power is positive
	row := len(work.Rows) - 1
	sv, err := lp.NewSolver(work)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sv.Solve()
	if err != nil || s.Status != lp.Optimal {
		b.Fatalf("root solve: %v %v", s.Status, err)
	}
	tight := s.Objective + 0.01
	s0 := sv.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.SetRowRHS(row, tight)
		if r, err := sv.Solve(); err != nil || r.Status != lp.Optimal {
			b.Fatalf("tight re-solve: %v %v", r.Status, err)
		}
		sv.SetRowRHS(row, 0)
		if r, err := sv.Solve(); err != nil || r.Status != lp.Optimal {
			b.Fatalf("loose re-solve: %v %v", r.Status, err)
		}
	}
	b.StopTimer()
	d := sv.Stats()
	b.ReportMetric(float64(d.Pivots-s0.Pivots)/float64(b.N), "pivots/op")
	if cold := d.ColdSolves - s0.ColdSolves; cold != 0 {
		b.Fatalf("%d cold rebuilds in the warm re-solve loop", cold)
	}
}

func BenchmarkMILPKnapsack(b *testing.B) {
	m := linexpr.NewModel()
	weights := []float64{3, 4, 2, 1, 5, 6, 2, 3, 4, 1, 2, 5}
	values := []float64{10, 13, 7, 5, 16, 18, 6, 9, 12, 3, 7, 15}
	e := linexpr.Expr{}
	obj := linexpr.Expr{}
	for i := range weights {
		id := m.Binary("")
		e = e.PlusTerm(id, weights[i])
		obj = obj.PlusTerm(id, values[i])
	}
	m.Add("w", e, linexpr.LE, 15)
	m.SetObjective(obj, true)
	c := m.Compile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := milp.Solve(c, milp.Options{})
		if err != nil || s.Status != milp.Optimal {
			b.Fatal(err, s.Status)
		}
	}
}

// BenchmarkExtParetoSweep measures one ε-constraint Pareto sweep — the
// full hisweep -pareto pipeline (one Algorithm 1 run per bound over the
// engine's class ledger and cache) — over an 8-bound grid at 20 s
// fidelity on a fresh engine per op, reporting the pivots solved and the
// engine's fresh fraction alongside ns/op.
func BenchmarkExtParetoSweep(b *testing.B) {
	bounds := []float64{0.5, 0.56, 0.62, 0.68, 0.74, 0.8, 0.86, 0.92}
	mkProblem := func() *design.Problem {
		pr := design.PaperProblem(0.5)
		pr.Duration = 20
		pr.Runs = 1
		return pr
	}
	if _, err := core.ParetoSweep(context.Background(), mkProblem(), core.SweepOptions{Bounds: bounds}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pivots int
	var fresh float64
	for i := 0; i < b.N; i++ {
		res, err := core.ParetoSweep(context.Background(), mkProblem(), core.SweepOptions{Bounds: bounds})
		if err != nil {
			b.Fatal(err)
		}
		pivots += res.LPIterations
		fresh += res.Engine.FreshFrac()
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(fresh/float64(b.N), "fresh_frac")
	b.ReportMetric(float64(len(bounds)), "points/op")
}

// BenchmarkGammaOneSlabLegacyFallback measures the Γ = 1 known-cost
// regression pinned by core's TestGammaOneSecondClassSlab: enumerating
// the degenerate 132-member second power class, where the warm
// single-tree pool trips its stale-twice guard and falls back to the
// legacy clone-based enumeration. The ~15 s per op ARE the
// regression being tracked (hisweep -gamma pays this once per sweep) —
// far too slow for BENCH_simcore.json's repeat-3 protocol, so it is
// deliberately absent from hibench -benchjson; run it directly with
// -benchtime 1x when touching the pool enumeration or the Γ lowering.
func BenchmarkGammaOneSlabLegacyFallback(b *testing.B) {
	pr := design.PaperProblem(0.9)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work, obj, _, err := core.CompileMILPRobust(pr, core.RobustCompile{Gamma: 1, PDRFloor: 0.83})
		if err != nil {
			b.Fatal(err)
		}
		st := milp.NewState(work, milp.Options{})
		_, agg1, err := st.SolvePool(0, 1e-6)
		if err != nil {
			b.Fatal(err)
		}
		work.AddExprRow("prune_0", obj, linexpr.GE, agg1.Objective+1e-4)
		b.StartTimer()
		pool, agg2, err := st.SolvePool(0, 1e-6)
		if err != nil {
			b.Fatal(err)
		}
		if len(pool) != 132 || agg2.WarmSolves != 0 || agg2.ColdSolves != 0 {
			b.Fatalf("slab shape moved: %d members, warm=%d cold=%d (want 132 via the legacy fallback)",
				len(pool), agg2.WarmSolves, agg2.ColdSolves)
		}
	}
	b.ReportMetric(132, "members/op")
}
