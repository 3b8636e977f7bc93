package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
)

// The traced run measures each layer from outside the program: it first
// runs the workload's ops (the op spans), then replays the recorded ops
// layer by layer through the public functions of internal/milp,
// internal/engine and internal/netsim, checking each replay against what
// the op produced. Nothing inside the program is instrumented, so the op
// spans cost what untraced ops cost; the replays give the layer spans.

// span is one timed interval of the traced run. Spans of one op share Op;
// Parent is the enclosing span's ID (0 for an op span).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	opRoot bool
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) now() float64 { return float64(time.Since(tr.t0).Nanoseconds()) / 1e6 }

func (tr *tracer) start(op, parent int, name string) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Op: op, Name: name, Start: tr.now()})
	return len(tr.spans)
}

// end closes a span and returns its duration in ms.
func (tr *tracer) end(id int, attrs map[string]float64) float64 {
	s := &tr.spans[id-1]
	s.End = tr.now()
	s.Attrs = attrs
	return s.End - s.Start
}

func (tr *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTotals sums per-layer figures over the replayed ops.
type layerTotals map[string]float64

func (l layerTotals) add(k string, v float64) { l[k] += v }
func (l layerTotals) max(k string, v float64) { l[k] = math.Max(l[k], v) }

// roundRef is one Algorithm 1 round as the op reported it: P̄*, pool size
// and, when the op exposes them, the candidate points.
type roundRef struct {
	PBar   float64
	Pool   int
	Points []design.Point
}

func roundsOf(out *core.Outcome) []roundRef {
	rs := make([]roundRef, len(out.Iterations))
	for i, it := range out.Iterations {
		rs[i] = roundRef{PBar: it.PBarStar, Pool: len(it.Candidates)}
		for _, c := range it.Candidates {
			rs[i].Points = append(rs[i].Points, c.Point)
		}
	}
	return rs
}

// milpReplay is the result of replaying one chain's MILP oracle.
type milpReplay struct {
	ms     float64        // compile + all pool calls
	points []design.Point // decoded pool members, first appearance order
	pivots int
	nodes  int
	warm   int
	cold   int
}

// replayMILP re-runs a chain's oracle loop as Algorithm 1 does:
// CompileMILP, one milp.State, SolvePool per round and an objective
// prune cut after it, plus the terminating call. Each round must reproduce
// the op's P̄* bit for bit and its pool (size, and members when known).
func replayMILP(tr *tracer, lt layerTotals, op, parent int, pr *design.Problem, rounds []roundRef) (*milpReplay, error) {
	rep := &milpReplay{}
	id := tr.start(op, parent, "milp.compile")
	comp, obj, err := core.CompileMILP(pr)
	if err != nil {
		return nil, err
	}
	st := milp.NewState(comp, milp.Options{})
	ms := tr.end(id, nil)
	lt.add("milp.compile_ms", ms)
	rep.ms += ms
	dec := newDecoder(comp)
	for k := 0; ; k++ {
		id := tr.start(op, parent, "milp.solve_pool")
		pool, agg, err := st.SolvePool(0, 1e-6)
		if err != nil {
			return nil, err
		}
		// The warm kernel counts its solves; the clone fallback counts
		// none, so a call with neither ran on the clone path.
		legacy := st.Legacy() || (agg.WarmSolves == 0 && agg.ColdSolves == 0)
		ms := tr.end(id, map[string]float64{
			"round": float64(k), "pool": float64(len(pool)), "pivots": float64(agg.LPIterations),
			"nodes": float64(agg.Nodes), "legacy": b2f(legacy),
		})
		rep.ms += ms
		rep.pivots += agg.LPIterations
		rep.nodes += agg.Nodes
		rep.warm += agg.WarmSolves
		rep.cold += agg.ColdSolves
		lt.add("milp.solve_ms", ms)
		lt.max("milp.slowest_call_ms", ms)
		lt.add("milp.calls", 1)
		lt.add("milp.pivots", float64(agg.LPIterations))
		lt.add("milp.nodes", float64(agg.Nodes))
		lt.add("milp.warm_solves", float64(agg.WarmSolves))
		lt.add("milp.cold_solves", float64(agg.ColdSolves))
		lt.add("milp.refactorizations", float64(agg.Refactorizations))
		lt.add("milp.legacy_calls", b2f(legacy))
		lt.add("milp.pool_members", float64(len(pool)))
		if agg.Status != milp.Optimal || len(pool) == 0 || k == len(rounds) {
			// The op's loop ended here too: MILP exhausted, or the
			// α-bound stopped it after this call.
			if k != len(rounds) {
				return nil, fmt.Errorf("milp replay: exhausted after %d rounds, op ran %d", k, len(rounds))
			}
			return rep, nil
		}
		want := rounds[k]
		if agg.Objective != want.PBar || len(pool) != want.Pool {
			return nil, fmt.Errorf("milp replay round %d: P̄*=%v pool %d, op had P̄*=%v pool %d",
				k, agg.Objective, len(pool), want.PBar, want.Pool)
		}
		seen := map[uint32]bool{}
		for _, ps := range pool {
			p := dec.point(ps.X)
			seen[p.Key()] = true
			rep.points = append(rep.points, p)
		}
		for _, p := range want.Points {
			if !seen[p.Key()] {
				return nil, fmt.Errorf("milp replay round %d: op candidate %v not in the replayed pool", k, p)
			}
		}
		comp.AddExprRow(fmt.Sprintf("prune_%d", k), obj, linexpr.GE, agg.Objective+1e-4)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// decoder maps a pool member of the compiled relaxation back to a design
// point by variable name: n<i> topology bits, p<k> Tx-mode one-hot (from
// 1), pmac (1 = TDMA) and prt (1 = mesh).
type decoder struct {
	loc, tx map[int]int
	mac     int
	rt      int
}

func newDecoder(comp *linexpr.Compiled) *decoder {
	d := &decoder{loc: map[int]int{}, tx: map[int]int{}, mac: -1, rt: -1}
	for j, name := range comp.Names {
		switch {
		case name == "pmac":
			d.mac = j
		case name == "prt":
			d.rt = j
		case len(name) > 1 && (name[0] == 'n' || name[0] == 'p'):
			if i, err := strconv.Atoi(name[1:]); err == nil {
				if name[0] == 'n' {
					d.loc[j] = i
				} else {
					d.tx[j] = i - 1
				}
			}
		}
	}
	return d
}

func (d *decoder) point(x []float64) design.Point {
	var p design.Point
	for j, i := range d.loc {
		if x[j] > 0.5 {
			p.Topology |= 1 << uint(i)
		}
	}
	for j, k := range d.tx {
		if x[j] > 0.5 {
			p.TxMode = k
		}
	}
	if x[d.mac] > 0.5 {
		p.MAC = netsim.TDMA
	}
	if x[d.rt] > 0.5 {
		p.Routing = netsim.Mesh
	}
	return p
}

// uniquePoints drops repeated points, keeping first appearances.
func uniquePoints(pts []design.Point) []design.Point {
	seen := map[uint32]bool{}
	var out []design.Point
	for _, p := range pts {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			out = append(out, p)
		}
	}
	return out
}

func requests(pr *design.Problem, pts []design.Point) []engine.Request {
	reqs := make([]engine.Request, len(pts))
	for i, p := range pts {
		reqs[i] = engine.Request{Cfg: pr.Config(p), Runs: pr.Runs, Seed: pr.Seed, Key: engine.PointKey(p.Key())}
	}
	return reqs
}

// engineReplay is one replayed batch.
type engineReplay struct {
	eng     *engine.Engine
	results []*netsim.Result
	batchMS float64
	hitMS   float64
}

// replayEngine evaluates the op's candidates as one batch on eng (fresh
// for a single chain, shared across a front's bounds as the op shares
// it), then re-submits the same batch to the now warm engine (every
// request a cache hit).
func replayEngine(tr *tracer, lt layerTotals, op, parent int, pr *design.Problem, pts []design.Point, eng *engine.Engine) (*engineReplay, error) {
	reqs := requests(pr, pts)
	rep := &engineReplay{eng: eng}
	id := tr.start(op, parent, "engine.batch")
	var err error
	rep.results, err = eng.EvaluateBatch(reqs, nil)
	if err != nil {
		return nil, err
	}
	rep.batchMS = tr.end(id, map[string]float64{"requests": float64(len(reqs)), "workers": float64(eng.Workers())})
	if err := replayHits(tr, lt, op, parent, rep, reqs); err != nil {
		return nil, err
	}
	lt.add("engine.batch_ms", rep.batchMS)
	return rep, nil
}

// replayHits re-submits a batch to its warm engine; every request must be
// a cache hit returning the first batch's result.
func replayHits(tr *tracer, lt layerTotals, op, parent int, rep *engineReplay, reqs []engine.Request) error {
	before := rep.eng.Stats()
	id := tr.start(op, parent, "engine.hit_batch")
	hits, err := rep.eng.EvaluateBatch(reqs, nil)
	if err != nil {
		return err
	}
	ms := tr.end(id, map[string]float64{"requests": float64(len(reqs))})
	rep.hitMS = ms
	if d := rep.eng.Stats().Sub(before); d.CacheHits != int64(len(reqs)) {
		return fmt.Errorf("engine replay: %d of %d re-submitted requests hit the cache", d.CacheHits, len(reqs))
	}
	for i := range hits {
		if hits[i] != rep.results[i] && !sameResult(hits[i], rep.results[i]) {
			return fmt.Errorf("engine replay: cache hit %d differs from its first result", i)
		}
	}
	lt.add("engine.hit_ms", ms)
	lt.add("engine.hit_requests", float64(len(reqs)))
	return nil
}

func sameResult(a, b *netsim.Result) bool {
	return math.Float64bits(a.PDR) == math.Float64bits(b.PDR) &&
		math.Float64bits(float64(a.MaxPower)) == math.Float64bits(float64(b.MaxPower)) &&
		math.Float64bits(a.NLTDays) == math.Float64bits(b.NLTDays)
}

// replayNetsim re-runs every candidate on one netsim.Evaluator and checks
// each result bit-identical to the engine's. It returns the kernel time.
func replayNetsim(tr *tracer, lt layerTotals, op, parent int, pr *design.Problem, pts []design.Point, want []*netsim.Result) (float64, error) {
	ev := netsim.NewEvaluator()
	var events uint64
	id := tr.start(op, parent, "netsim.run")
	for i, p := range pts {
		r, err := ev.RunAveraged(pr.Config(p), pr.Runs, pr.Seed)
		if err != nil {
			return 0, err
		}
		if !sameResult(r, want[i]) {
			return 0, fmt.Errorf("netsim replay: %v differs from the engine's result", p)
		}
		events += r.Events
	}
	runs := float64(len(pts) * max(1, pr.Runs))
	ms := tr.end(id, map[string]float64{"runs": runs, "events": float64(events)})
	lt.add("netsim.runs", runs)
	lt.add("netsim.events", float64(events))
	lt.add("netsim.sim_s", runs*pr.Duration)
	lt.add("netsim.run_ms", ms)
	return ms, nil
}

// replaySnapshot saves the replay engine's cache and loads it into a fresh
// engine; the load must restore every entry.
func replaySnapshot(tr *tracer, lt layerTotals, op, parent int, eng *engine.Engine, pr *design.Problem, dir string) error {
	path := filepath.Join(dir, fmt.Sprintf("snapshot-%d.bin", op))
	defer os.Remove(path)
	sig := engine.ContextSig(pr.Duration, pr.Runs, pr.Seed)
	id := tr.start(op, parent, "engine.save")
	n, err := eng.SaveCache(path, sig)
	if err != nil {
		return err
	}
	lt.add("engine.save_ms", tr.end(id, map[string]float64{"entries": float64(n)}))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fresh, err := engine.New(1)
	if err != nil {
		return err
	}
	id = tr.start(op, parent, "engine.load")
	m, err := fresh.LoadCache(path, sig)
	if err != nil {
		return err
	}
	lt.add("engine.load_ms", tr.end(id, map[string]float64{"entries": float64(m)}))
	if m != n {
		return fmt.Errorf("snapshot replay: loaded %d of %d entries", m, n)
	}
	lt.add("engine.snapshot_bytes", float64(fi.Size()))
	lt.add("engine.snapshots", 1)
	return nil
}

// addEngineStats adds an op's own engine counters.
func addEngineStats(lt layerTotals, s engine.Stats) {
	lt.add("engine.submitted", float64(s.Submitted))
	lt.add("engine.simulated", float64(s.Simulated))
	lt.add("engine.cache_hits", float64(s.CacheHits))
	lt.add("engine.dedup_hits", float64(s.DedupHits))
	lt.add("engine.disk_hits", float64(s.DiskHits))
}

// replayChainOp replays one Algorithm 1 run (a chain op, or one bound of
// a front) whose outcome is known: its MILP oracle, one engine batch of its
// candidates on eng, and netsim re-runs of the candidates eng had not
// simulated before (simulated tracks them across calls). Every candidate's
// metrics must match the op's.
func replayChainOp(tr *tracer, lt layerTotals, op, parent int, pr *design.Problem, out *core.Outcome, eng *engine.Engine, simulated map[uint32]bool) (milpMS, engineMS float64, err error) {
	m, err := replayMILP(tr, lt, op, parent, pr, roundsOf(out))
	if err != nil {
		return 0, 0, err
	}
	if m.pivots != out.LPIterations || m.nodes != out.MILPNodes || m.warm != out.MILPWarmSolves || m.cold != out.MILPColdSolves {
		return 0, 0, fmt.Errorf("milp replay: %d pivots %d nodes %d/%d warm/cold, op had %d %d %d/%d",
			m.pivots, m.nodes, m.warm, m.cold, out.LPIterations, out.MILPNodes, out.MILPWarmSolves, out.MILPColdSolves)
	}
	pts := uniquePoints(m.points)
	e, err := replayEngine(tr, lt, op, parent, pr, pts, eng)
	if err != nil {
		return 0, 0, err
	}
	known := map[uint32]core.Candidate{}
	for _, it := range out.Iterations {
		for _, c := range it.Candidates {
			known[c.Point.Key()] = c
		}
	}
	var fresh []design.Point
	var freshRes []*netsim.Result
	for i, p := range pts {
		c := known[p.Key()]
		if math.Float64bits(c.PDR) != math.Float64bits(e.results[i].PDR) || math.Float64bits(c.PowerMW) != math.Float64bits(float64(e.results[i].MaxPower)) {
			return 0, 0, fmt.Errorf("engine replay: %v differs from the op's candidate", p)
		}
		if !simulated[p.Key()] {
			simulated[p.Key()] = true
			fresh = append(fresh, p)
			freshRes = append(freshRes, e.results[i])
		}
	}
	kernelMS, err := replayNetsim(tr, lt, op, parent, pr, fresh, freshRes)
	if err != nil {
		return 0, 0, err
	}
	lt.add("engine.dispatch_ms", e.batchMS-kernelMS/float64(eng.Workers()))
	lt.add("core.iterations", float64(len(out.Iterations)))
	lt.add("core.evaluations", float64(out.Evaluations))
	lt.add("core.simulations", float64(out.Simulations))
	lt.add("core.alpha_terminations", b2f(out.TerminatedByAlpha))
	addEngineStats(lt, out.Engine)
	return m.ms, e.batchMS, nil
}

// perOp lists the per-layer metrics reported as a mean per replayed op;
// the rest are ratios or run totals computed in layerMetrics.
var perOp = []struct{ name, unit string }{
	{"milp.compile_ms", "ms"}, {"milp.solve_ms", "ms"}, {"milp.calls", "count"},
	{"milp.pivots", "count"}, {"milp.nodes", "count"}, {"milp.warm_solves", "count"},
	{"milp.cold_solves", "count"}, {"milp.refactorizations", "count"}, {"milp.legacy_calls", "count"},
	{"milp.pool_members", "count"},
	{"core.iterations", "count"}, {"core.evaluations", "count"}, {"core.simulations", "count"},
	{"core.alpha_terminations", "count"}, {"core.self_ms", "ms"},
	{"engine.batch_ms", "ms"}, {"engine.submitted", "count"}, {"engine.simulated", "count"},
	{"engine.cache_hits", "count"}, {"engine.dedup_hits", "count"}, {"engine.disk_hits", "count"},
	{"engine.dispatch_ms", "ms"},
	{"netsim.runs", "count"}, {"netsim.events", "count"}, {"netsim.sim_s", "s"}, {"netsim.run_ms", "ms"},
}

// layerMetrics turns the replay totals into the per-layer metrics.
func layerMetrics(lt layerTotals, replayed int, opLat []float64) map[string]metric {
	m := map[string]metric{}
	n := float64(max(replayed, 1))
	for _, k := range perOp {
		m[k.name] = metric{lt[k.name] / n, k.unit}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["milp.slowest_call_ms"] = metric{lt["milp.slowest_call_ms"], "ms"}
	m["milp.us_per_pivot"] = metric{ratio(lt["milp.solve_ms"]*1e3, lt["milp.pivots"]), "us"}
	m["core.bound_ms"] = metric{ratio(lt["core.bound_ms"], lt["core.bounds"]), "ms"}
	m["engine.hit_frac"] = metric{ratio(lt["engine.cache_hits"]+lt["engine.dedup_hits"]+lt["engine.disk_hits"], lt["engine.submitted"]), "frac"}
	m["engine.hit_ns"] = metric{ratio(lt["engine.hit_ms"]*1e6, lt["engine.hit_requests"]), "ns"}
	m["engine.save_ms"] = metric{ratio(lt["engine.save_ms"], lt["engine.snapshots"]), "ms"}
	m["engine.load_ms"] = metric{ratio(lt["engine.load_ms"], lt["engine.snapshots"]), "ms"}
	m["engine.snapshot_bytes"] = metric{ratio(lt["engine.snapshot_bytes"], lt["engine.snapshots"]), "bytes"}
	m["netsim.sim_s_per_s"] = metric{ratio(lt["netsim.sim_s"], lt["netsim.run_ms"]/1e3), "s/s"}
	m["netsim.ns_per_event"] = metric{ratio(lt["netsim.run_ms"]*1e6, lt["netsim.events"]), "ns"}
	for _, k := range []string{"serve.requests", "serve.ok", "serve.failed", "serve.status_429"} {
		m[k] = metric{lt[k], "count"}
	}
	m["serve.warm_frac"] = metric{ratio(lt["serve.warm"], lt["serve.requests"]), "frac"}
	m["serve.http_rtt_ms"] = metric{lt["serve.http_rtt_ms"], "ms"}
	m["serve.iterations"] = metric{ratio(lt["serve.iterations"], lt["serve.requests"]), "count"}
	opMS := lt["trace.op_ms"]
	m["trace.op_p50_ms"] = metric{median(opLat), "ms"}
	m["trace.ops"] = metric{float64(len(opLat)), "count"}
	m["trace.replayed_ops"] = metric{float64(replayed), "count"}
	m["trace.milp_share"] = metric{ratio(lt["trace.milp_ms"], opMS), "frac"}
	m["trace.engine_share"] = metric{ratio(lt["trace.engine_ms"], opMS), "frac"}
	m["trace.self_share"] = metric{ratio(lt["trace.self_ms"], opMS), "frac"}
	m["trace.reconcile_fail"] = metric{lt["trace.reconcile_fail"], "count"}
	return m
}

// reconcile books one replayed op: its layer spans plus the remainder (the
// caller's self time) equal the op span. The remainder carries the
// replays' own timing noise, a few percent of the op; one below -25% of
// the op means the replayed layers took far longer than the op itself, and
// is counted.
// For ops that run through core the remainder is also core.self_ms.
func reconcile(lt layerTotals, opMS, milpMS, engineMS float64, viaCore bool) {
	self := opMS - milpMS - engineMS
	lt.add("trace.op_ms", opMS)
	lt.add("trace.milp_ms", milpMS)
	lt.add("trace.engine_ms", engineMS)
	lt.add("trace.self_ms", self)
	if viaCore {
		lt.add("core.self_ms", self)
	}
	if self < -0.25*opMS {
		lt.add("trace.reconcile_fail", 1)
	}
}

// runTraced is the traced run: ops for half the time, then replays of the
// recorded ops until the time is up (at least one).
func runTraced(workload string, seed uint64, seconds float64, par int, out string) (*result, error) {
	tr := &tracer{t0: time.Now()}
	lt := layerTotals{}
	var t tally
	total := time.Duration(seconds * float64(time.Second))
	opsEnd := tr.t0.Add(total / 2)
	end := tr.t0.Add(total)
	tmp := filepath.Join(outDir(), "perfbench-tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var replayed int
	var err error
	switch workload {
	case "chain":
		replayed, err = traceChain(tr, lt, &t, seed, par, opsEnd, end, tmp)
	case "sweep":
		replayed, err = traceSweep(tr, lt, &t, seed, opsEnd, end, tmp)
	case "front":
		replayed, err = traceFront(tr, lt, &t, seed, par, opsEnd, end, tmp)
	case "serve":
		replayed, err = traceServe(tr, lt, &t, seed, par, opsEnd, end, tmp)
	}
	if err != nil {
		return nil, err
	}
	if out == "" {
		out = filepath.Join(outDir(), fmt.Sprintf("trace-%s-%d.json", workload, seed))
	}
	if err := tr.write(out, workload, seed); err != nil {
		return nil, err
	}
	var opLat []float64
	for _, s := range tr.spans {
		if s.opRoot {
			opLat = append(opLat, s.End-s.Start)
		}
	}
	printInfo(map[string]any{"spans": len(tr.spans), "trace_file": out, "errors": t.errs})
	return &result{
		Correct:   t.attempts > 0 && t.failed == 0,
		Attempted: t.attempts,
		Failed:    t.failed,
		Metrics:   layerMetrics(lt, replayed, opLat),
	}, nil
}

// opSpan times one op as a root span.
func (tr *tracer) opSpan(op int, name string, fn func() error) (float64, error) {
	id := tr.start(op, 0, name)
	tr.spans[id-1].opRoot = true
	err := fn()
	return tr.end(id, nil), err
}
