// Package microbench is the one definition of the micro-benchmarks that
// BENCH_simcore.json records. Two consumers iterate All: the root
// bench_test.go runs every entry as a sub-benchmark of BenchmarkMicro
// (go test -bench Micro), and hibench -benchjson measures every entry
// in-process to write the file. Editing a benchmark here therefore
// changes what both of them measure.
package microbench

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"hiopt/internal/body"
	"hiopt/internal/channel"
	"hiopt/internal/core"
	"hiopt/internal/des"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/fault"
	"hiopt/internal/linexpr"
	"hiopt/internal/lp/presolve"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
	"hiopt/internal/phys"
	"hiopt/internal/rng"
)

// Bench is one recorded micro-benchmark.
type Bench struct {
	// Name is the benchmark's key in BENCH_simcore.json and its
	// sub-benchmark name under BenchmarkMicro.
	Name string
	F    func(*testing.B)
}

// All lists the recorded micro-benchmarks in measurement order.
var All = []Bench{
	{"des_steady_state", desSteadyState},
	{"netsim_one_second", netsimOneSecond},
	{"netsim_tdma_star_one_second", netsimTDMAStarOneSecond},
	{"channel_pathloss_at", channelPathLossAt},
	{"robust_eval", robustEval},
	{"engine_batch", engineBatch},
	{"engine_cache_hit", engineCacheHit},
	{"engine_reps_parallel", engineRepsParallel},
	{"engine_adaptive_screen", engineAdaptiveScreen},
	{"engine_shard_contention", engineShardContention},
	{"engine_disk_warm", engineDiskWarm},
	{"milp_pool", chainBench(milpPoolChain, true)},
	{"milp_pool_cold", chainBench(milpPoolChain, false)},
	{"milp_sparse_pool", func(b *testing.B) { genM40Pool(b, milp.Options{}) }},
	{"milp_dense_m40", func(b *testing.B) { genM40Pool(b, milp.Options{DenseLP: true}) }},
	{"milp_presolve", milpPresolve},
	{"milp_parallel_bb", milpParallelBB},
	{"milp_gamma_warm", chainBench(gammaSweepChain, true)},
	{"milp_gamma_cold", chainBench(gammaSweepChain, false)},
	{"core_pareto_front", coreParetoFront},
}

// --- simulator substrates ---

func desSteadyState(b *testing.B) {
	// A self-rescheduling event chain at 1 kHz: after warm-up every
	// Schedule is served from the kernel's free list, so steady state
	// must report 0 allocs/op (1000 events per op).
	sim := des.New()
	var tick func()
	tick = func() { sim.Schedule(0.001, tick) }
	sim.Schedule(0.001, tick)
	sim.Run(1) // warm-up: populate the event pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(float64(i) + 2)
	}
	b.ReportMetric(float64(sim.Processed())/float64(b.N), "events/op")
}

func netsimOneSecond(b *testing.B) {
	// One simulated second per op of the busiest protocol corner (5-node
	// CSMA mesh), stepped on a single long-lived network so the pooled
	// steady state is visible: 0 allocs/op after warm-up.
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 5, 7}, netsim.CSMA, netsim.Mesh, 2)
	cfg.Duration = 1 << 20 // effectively unbounded for a stepped run
	n, err := netsim.New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	sim := n.Simulator()
	sim.Run(2) // warm-up: fills the event/transmission pools
	start := sim.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(float64(i) + 3)
	}
	b.ReportMetric(float64(sim.Processed()-start)/float64(b.N), "events/op")
}

func netsimTDMAStarOneSecond(b *testing.B) {
	// One simulated second per op of the TDMA star, the MAC the Fig. 3
	// sweep spends most of its simulator time in (slot timers, relays
	// through the chest coordinator): a 5-node star at 0 dBm, stepped on
	// one long-lived network like netsim_one_second, 0 allocs/op after
	// warm-up. events/op is the kernel's processed count over the timed
	// seconds divided by b.N.
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 5, 7}, netsim.TDMA, netsim.Star, 2)
	cfg.Duration = 1 << 20
	n, err := netsim.New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	sim := n.Simulator()
	sim.Run(2)
	start := sim.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(float64(i) + 3)
	}
	b.ReportMetric(float64(sim.Processed()-start)/float64(b.N), "events/op")
}

// sinkDB defeats dead-code elimination of the PathLossAt benchmark.
var sinkDB phys.DB

func channelPathLossAt(b *testing.B) {
	// One transmission's worth of receptions per op: the nine pairs of
	// location 0 advance to the same instant, by the same Δt, exercising
	// the flat pair-index lookup and the ρ table. t accumulates, so Δt's
	// low bits drift from op to op: the first pair of an op may miss the
	// table, the other eight hit. Must report 0 allocs/op.
	locs := body.Default()
	ch := channel.New(locs, channel.DefaultParams(), rng.NewSource(1))
	var sink phys.DB
	t := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 1e-3
		for j := 1; j < len(locs); j++ {
			sink += ch.PathLossAt(t, 0, j)
		}
	}
	sinkDB = sink
}

func robustEval(b *testing.B) {
	// One 10-second robust evaluation per op: the 4-node star against its
	// 1-node-failure family (3 scenarios + nominal, common random
	// numbers) on a recycled evaluator — the unit of work the optimizer's
	// robust screening pays per nominally feasible candidate.
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 2)
	cfg.Duration = 10
	scenarios := fault.ScenarioGen{Seed: 1}.KNodeFailures(cfg.Locations, cfg.CoordinatorLoc, 1, cfg.Duration)
	ev := netsim.NewEvaluator()
	if _, err := ev.EvaluateRobust(cfg, 1, 1, scenarios); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateRobust(cfg, 1, 1, scenarios); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(scenarios)+1), "sims/op")
}

// --- evaluation engine ---

// engineBatchRequests builds the engine-dispatched equivalent of
// robust_eval's work: the 4-node star's nominal run plus its
// 1-node-failure family, as one batch (keyed for the cache-hit variants).
func engineBatchRequests(keyed bool) []engine.Request {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 2)
	cfg.Duration = 10
	scenarios := fault.ScenarioGen{Seed: 1}.KNodeFailures(cfg.Locations, cfg.CoordinatorLoc, 1, cfg.Duration)
	reqs := []engine.Request{{Cfg: cfg, Runs: 1, Seed: 1}}
	for _, sc := range scenarios {
		c := cfg
		c.Scenario = sc
		reqs = append(reqs, engine.Request{Cfg: c, Runs: 1, Seed: 1})
	}
	if keyed {
		pk := design.Point{Topology: 1<<0 | 1<<1 | 1<<3 | 1<<6, TxMode: 2,
			MAC: netsim.TDMA, Routing: netsim.Star}.Key()
		reqs[0].Key = engine.PointKey(pk)
		for i, sc := range scenarios {
			reqs[i+1].Key = engine.ScenarioKey(pk, sc.Key())
		}
	}
	return reqs
}

func engineBatch(b *testing.B) {
	// robust_eval's family dispatched through the evaluation engine's
	// worker pool, uncached (every op simulates afresh): ns/op vs
	// robust_eval is the engine's dispatch overhead, which must stay
	// negligible against the simulation itself.
	eng, err := engine.New(1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := engineBatchRequests(false)
	if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "sims/op")
}

func engineCacheHit(b *testing.B) {
	// The same batch, keyed and pre-warmed: every op resolves from the
	// unified cache without touching a simulator. EvaluateBatchInto with
	// a reused results slice exercises the all-hits fast path — 0
	// allocs/op, pinned by the hibench -cmp allocation gate.
	eng, err := engine.New(1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := engineBatchRequests(true)
	results := make([]*netsim.Result, len(reqs))
	if err := eng.EvaluateBatchInto(context.Background(), results, reqs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.EvaluateBatchInto(context.Background(), results, reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "hits/op")
}

// contentionHits is the number of cache hits in one op of
// engine_shard_contention. It is fixed, and split across the goroutines,
// so that ns/op measures the same work on hosts with different
// GOMAXPROCS; at GOMAXPROCS 1 the op is one goroutine doing all of it.
const contentionHits = 1000

// contendHits hammers the engine's cache-hit path with total
// single-request lookups split across g goroutines, over the keyed
// request set with per-goroutine phase offsets (colliding keys, distinct
// access order) — the access pattern of cache-heavy concurrent batches.
func contendHits(b *testing.B, eng *engine.Engine, reqs []engine.Request, g, total int) {
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		n := total / g
		if w < total%g {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := eng.Evaluate(context.Background(), reqs[(w+i)%len(reqs)]); err != nil {
					b.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

func engineShardContention(b *testing.B) {
	// GOMAXPROCS goroutines hammering cache hits on the lock-striped
	// cache. The same workload against a single-stripe engine (the old
	// single-mutex layout, NewSharded(…, 1)) is timed before the
	// measured loop; speedup_vs_mutex1 is the contended-hit throughput
	// ratio — ≈1 on a 1-CPU host where goroutines serialize anyway, and
	// growing with cores as stripes stop the lock convoy.
	g := runtime.GOMAXPROCS(0)
	reqs := engineBatchRequests(true)

	m1, err := engine.NewSharded(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m1.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	contendHits(b, m1, reqs, g, contentionHits) // warm up the baseline
	t0 := time.Now()
	const baseRounds = 3
	for i := 0; i < baseRounds; i++ {
		contendHits(b, m1, reqs, g, contentionHits)
	}
	base := time.Since(t0).Seconds() / baseRounds

	sharded, err := engine.NewSharded(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sharded.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	contendHits(b, sharded, reqs, g, contentionHits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contendHits(b, sharded, reqs, g, contentionHits)
	}
	b.StopTimer()
	per := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(base/per, "speedup_vs_mutex1")
	b.ReportMetric(contentionHits, "hits/op")
	b.ReportMetric(float64(g), "goroutines")
}

func engineDiskWarm(b *testing.B) {
	// The warm-restart path end to end: a cold engine evaluates the keyed
	// batch once and saves it; every op then builds a fresh engine, loads
	// the cache file, and answers the whole batch from the persisted tier
	// without a single fresh simulation.
	path := filepath.Join(b.TempDir(), "cache.bin")
	sig := engine.ContextSig(10, 1, 1)
	cold, err := engine.New(1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := engineBatchRequests(true)
	if _, err := cold.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := cold.SaveCache(path, sig); err != nil {
		b.Fatal(err)
	}
	results := make([]*netsim.Result, len(reqs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := engine.New(1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := warm.LoadCache(path, sig); err != nil {
			b.Fatal(err)
		}
		if err := warm.EvaluateBatchInto(context.Background(), results, reqs, nil); err != nil {
			b.Fatal(err)
		}
		if st := warm.Stats(); st.Simulated != 0 || st.DiskHits != int64(len(reqs)) {
			b.Fatalf("disk-warm op simulated %d / %d disk hits, want 0 / %d", st.Simulated, st.DiskHits, len(reqs))
		}
	}
	b.ReportMetric(float64(len(reqs)), "disk_hits/op")
}

// engineRepBatchRequests builds 16 distinct configurations, each
// requesting 8 replications of a 2-second horizon — the workload of the
// replication-granularity scheduler benchmarks.
func engineRepBatchRequests() []engine.Request {
	locSets := [][]int{{0, 1, 3, 6}, {0, 2, 4, 6}, {0, 1, 5, 7}, {0, 3, 6, 9}}
	var reqs []engine.Request
	for _, locs := range locSets {
		for _, m := range []netsim.MACKind{netsim.CSMA, netsim.TDMA} {
			for _, rt := range []netsim.RoutingKind{netsim.Star, netsim.Mesh} {
				cfg := netsim.DefaultConfig(locs, m, rt, 2)
				cfg.Duration = 2
				reqs = append(reqs, engine.Request{Cfg: cfg, Runs: 8, Seed: 1})
			}
		}
	}
	return reqs
}

func engineRepsParallel(b *testing.B) {
	// 16 points × 8 replications at Workers = GOMAXPROCS, scheduled at
	// replication granularity (each replication is its own sub-task, so a
	// single point's 8 replications spread across the pool). The
	// sequential-replication baseline — one evaluator, replications in
	// seed order — is timed inside the benchmark; speedup_vs_sequential
	// records the wall-clock ratio: ≈1 on a single-core box, approaching
	// min(GOMAXPROCS, reps) with cores.
	reqs := engineRepBatchRequests()
	ev := netsim.NewEvaluator()
	for _, r := range reqs { // warm the allocator before timing the baseline
		if _, err := ev.RunAveraged(r.Cfg, r.Runs, r.Seed); err != nil {
			b.Fatal(err)
		}
	}
	t0 := time.Now()
	for _, r := range reqs {
		if _, err := ev.RunAveraged(r.Cfg, r.Runs, r.Seed); err != nil {
			b.Fatal(err)
		}
	}
	seq := time.Since(t0)
	eng, err := engine.New(0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
	par := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(seq.Seconds()/par, "speedup_vs_sequential")
	b.ReportMetric(float64(len(reqs)*8), "reps/op")
}

func engineAdaptiveScreen(b *testing.B) {
	// The screening-style adaptive workload: the same 16 points with the
	// 8×2 s budget split into confidence-gated blocks against a bound
	// every candidate is decisively clear of, so the gate stops most
	// replication budgets early. reps_saved/op and saved_frac record the
	// avoided work (the requests are keyless, so every op simulates
	// afresh — a warm cache would measure nothing).
	reqs := engineRepBatchRequests()
	gate := &netsim.Gate{PDRMin: 0.5, Margin: 0.05, Confidence: 0.9}
	for i := range reqs {
		reqs[i].Adaptive = gate
	}
	eng, err := engine.New(0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	start := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := eng.Stats().Sub(start)
	b.ReportMetric(float64(d.RepsSaved)/float64(b.N), "reps_saved/op")
	if total := d.SimSeconds() + d.SavedSeconds; total > 0 {
		b.ReportMetric(d.SavedSeconds/total, "saved_frac")
	}
}

// --- warm MILP kernel ---

// chainBench measures one run of chain per op, warm or cold, and reports
// its simplex pivots and branch-and-bound nodes per op. Every chain
// starts from the problem itself — a warm chain builds its own
// persistent state — so every op does the same work and the per-op
// counts are exact at any b.N.
func chainBench(chain func(b *testing.B, warm bool) (pivots, nodes int), warm bool) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var pivots, nodes int
		for i := 0; i < b.N; i++ {
			p, n := chain(b, warm)
			pivots += p
			nodes += n
		}
		b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	}
}

// milpPoolChain drives the first three Algorithm 1 oracle iterations —
// SolvePool, prune cut, SolvePool — on the paper problem's MILP and
// returns total simplex pivots and branch-and-bound nodes. Warm
// (milp_pool) keeps one persistent solver state across iterations
// (dual-simplex re-solves, bound-diff nodes, live no-good cuts); cold
// (milp_pool_cold) re-clones and re-solves from scratch like the
// pre-warm-kernel code path. pivots/op is the acceptance metric: warm
// must stay ≥2x below cold.
func milpPoolChain(b *testing.B, warm bool) (pivots, nodes int) {
	work, obj, err := core.CompileMILP(design.PaperProblem(0.9))
	if err != nil {
		b.Fatal(err)
	}
	var st *milp.State
	if warm {
		st = milp.NewState(work, milp.Options{})
	}
	for iter := 0; iter < 3; iter++ {
		var pool []milp.PoolSolution
		var agg *milp.Solution
		var err error
		if warm {
			pool, agg, err = st.SolvePool(0, 1e-6)
		} else {
			pool, agg, err = milp.SolvePool(work, milp.Options{}, 0, 1e-6)
		}
		if err != nil {
			b.Fatal(err)
		}
		if agg.Status != milp.Optimal || len(pool) == 0 {
			b.Fatalf("iter %d: status %v, %d members", iter, agg.Status, len(pool))
		}
		pivots += agg.LPIterations
		nodes += agg.Nodes
		work.AddExprRow(fmt.Sprintf("prune_%d", iter), obj, linexpr.GE, agg.Objective+1e-4)
	}
	return pivots, nodes
}

// genM40Pool is the kernel-scaling workload shared by milp_sparse_pool
// (the sparse revised-simplex kernel, the warm-state default) and
// milp_dense_m40 (the dense tableau kernel, the baseline of the sparse
// kernel's >=2x per-pivot claim): one full SolvePool on the committed
// M=40 generator instance (318 vars, ~730 rows). Dividing ns/op by
// pivots/op gives the per-pivot cost of each kernel at a size where the
// dense tableau's O(rows x cols) pivot update dominates.
func genM40Pool(b *testing.B, opt milp.Options) {
	b.ReportAllocs()
	base := milp.GenInstance(40, 1)
	b.ResetTimer()
	var pivots int
	for i := 0; i < b.N; i++ {
		pool, agg, err := milp.NewState(base.Clone(), opt).SolvePool(0, 1e-6)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Status != milp.Optimal || len(pool) == 0 {
			b.Fatalf("status %v, %d members", agg.Status, len(pool))
		}
		pivots += agg.LPIterations
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

func milpPresolve(b *testing.B) {
	// One Analyze+Apply presolve pass over the M=40 instance per op. On
	// this instance the fixpoint fixes the over-budget count indicators
	// and cascades through their product linearizations (~140 vars),
	// drops the spent budget row, and tightens the conflict rows.
	b.ReportAllocs()
	base := milp.GenInstance(40, 1)
	b.ResetTimer()
	var fixed, dropped, tightened int
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		red := presolve.Analyze(p)
		st := red.Apply(p)
		fixed += st.FixedVars
		dropped += st.DroppedRows
		tightened += st.TightenedCoefs
	}
	b.ReportMetric(float64(fixed)/float64(b.N), "fixed/op")
	b.ReportMetric(float64(dropped)/float64(b.N), "dropped/op")
	b.ReportMetric(float64(tightened)/float64(b.N), "tightened/op")
}

func milpParallelBB(b *testing.B) {
	// The paper-instance warm pool chain with B&B subtree dives fanned
	// across GOMAXPROCS workers. The enumerated pools are bit-identical
	// to the sequential ones; ns/op vs milp_pool is the recorded payoff
	// (or cost) of the fan-out on M=10-sized trees.
	b.ReportAllocs()
	var dives, nodes int
	for i := 0; i < b.N; i++ {
		work, obj, err := core.CompileMILP(design.PaperProblem(0.9))
		if err != nil {
			b.Fatal(err)
		}
		st := milp.NewState(work, milp.Options{Workers: runtime.GOMAXPROCS(0)})
		for iter := 0; iter < 3; iter++ {
			pool, agg, err := st.SolvePool(0, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			if agg.Status != milp.Optimal || len(pool) == 0 {
				b.Fatalf("iter %d: status %v, %d members", iter, agg.Status, len(pool))
			}
			dives += agg.ParallelDives
			nodes += agg.Nodes
			work.AddExprRow(fmt.Sprintf("prune_%d", iter), obj, linexpr.GE, agg.Objective+1e-4)
		}
	}
	b.ReportMetric(float64(dives)/float64(b.N), "dives/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// gammaSweepChain drives one Γ price-curve sweep — the oracle workload
// behind hisweep -gamma — over the Γ-robust relaxation at the attainable
// 0.6 floor (every Γ in the sweep is feasible within MaxNodes: the
// availability row demands N >= Γ·0.75/0.4, i.e. N >= 2, 4, 6). Warm
// (milp_gamma_warm, the path hisweep -gamma and the Γ-propose optimizer
// rely on) compiles the relaxation once and moves Γ with RetargetGamma on
// that one state (a single right-hand-side mutation, dual-simplex
// re-solve from the incumbent basis); cold (milp_gamma_cold) recompiles
// the robust relaxation and rebuilds a fresh state at every Γ, like a
// sweep without the handle would.
func gammaSweepChain(b *testing.B, warm bool) (pivots, nodes int) {
	pr := design.PaperProblem(0.9)
	var st *milp.State
	var h *core.RobustHandle
	if warm {
		work, _, hh, err := core.CompileMILPRobust(pr, core.RobustCompile{Gamma: 1, PDRFloor: 0.6})
		if err != nil {
			b.Fatal(err)
		}
		st, h = milp.NewState(work, milp.Options{}), hh
	}
	for _, gamma := range []float64{1, 2, 3} {
		var pool []milp.PoolSolution
		var agg *milp.Solution
		var err error
		if warm {
			if err = h.RetargetGamma(st, gamma); err != nil {
				b.Fatal(err)
			}
			pool, agg, err = st.SolvePool(0, 1e-6)
		} else {
			var work *linexpr.Compiled
			work, _, _, err = core.CompileMILPRobust(pr, core.RobustCompile{Gamma: gamma, PDRFloor: 0.6})
			if err != nil {
				b.Fatal(err)
			}
			pool, agg, err = milp.NewState(work, milp.Options{}).SolvePool(0, 1e-6)
		}
		if err != nil {
			b.Fatal(err)
		}
		if agg.Status != milp.Optimal || len(pool) == 0 {
			b.Fatalf("Γ=%g: status %v, %d members", gamma, agg.Status, len(pool))
		}
		pivots += agg.LPIterations
		nodes += agg.Nodes
	}
	return pivots, nodes
}

// coreParetoFront is one 9-bound reliability–lifetime front through
// core.ParetoFront per op — the path of hiopt.ParetoFront and the
// perfbench front workload — on the paper problem at a 2 s horizon, one
// run, bounds 0.50 → 0.82 in steps of 0.04, on a fresh engine so every op
// simulates and solves the same work. The engine's class ledger solves
// each power class once and replays it at the other bounds: pivots/op
// counts the pivots actually solved (LPIterations − MILPReplayedPivots
// over the bounds), which must equal the deepest bound's chain, and
// replayed_classes/op the oracle calls answered from the ledger.
func coreParetoFront(b *testing.B) {
	bounds := make([]float64, 9)
	for i := range bounds {
		bounds[i] = 0.50 + float64(0.04*float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pivots, replayed, solved int
	for i := 0; i < b.N; i++ {
		pr := design.PaperProblem(bounds[0])
		pr.Duration = 2
		pr.Runs = 1
		eng, err := engine.New(0)
		if err != nil {
			b.Fatal(err)
		}
		front, err := core.ParetoFront(pr, bounds, core.Options{Engine: eng})
		if err != nil {
			b.Fatal(err)
		}
		deepest, spent := 0, 0
		for _, pt := range front {
			out := pt.Outcome
			calls := len(out.Iterations) + 1 // + the α-terminating or exhausting call
			spent += out.LPIterations - out.MILPReplayedPivots
			deepest = max(deepest, out.LPIterations)
			replayed += out.MILPReplayedClasses
			solved += calls - out.MILPReplayedClasses
		}
		if spent != deepest {
			b.Fatalf("front solved %d pivots, its deepest bound's chain costs %d", spent, deepest)
		}
		pivots += spent
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(solved)/float64(b.N), "solved_classes/op")
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed_classes/op")
}
