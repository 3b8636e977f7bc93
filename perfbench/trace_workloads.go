package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/exhaustive"
	"hiopt/internal/netsim"
)

// opRec is one traced op, kept for its replay.
type opRec struct {
	op, span int // op id and its root span's ID
	ms       float64
	failed   bool
}

// replayFailed books a replay mismatch against its op: a passed op becomes
// failed, so ok_frac counts it, and it stays in the sample.
func replayFailed(t *tally, r *opRec, err error) {
	if err == nil || r.failed {
		return
	}
	r.failed = true
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, "replay: "+err.Error())
	}
}

// traceOp runs op number op (from 1) as a root span. The op makes no spans
// of its own, so its span is the last one.
func traceOp(tr *tracer, t *tally, op int, fn func() error) *opRec {
	ms, err := tr.opSpan(op, "op", fn)
	t.record(ms, err)
	return &opRec{op: op, span: len(tr.spans), ms: ms, failed: err != nil}
}

// traceChain runs one pass of the deck (the deep problem first) and more
// ops until opsEnd, then replays them in order, the deep one first.
func traceChain(tr *tracer, lt layerTotals, t *tally, seed uint64, par int, opsEnd, end time.Time, dir string) (int, error) {
	cat, err := loadCatalog()
	if err != nil {
		return 0, err
	}
	c := &chainRunner{deck: genChain(cat, seed)}
	type chainOp struct {
		*opRec
		e   chainEntry
		out *core.Outcome
	}
	var ops []chainOp
	for i := 0; i < len(c.deck) || time.Now().Before(opsEnd); i++ {
		e := c.deck[i%len(c.deck)]
		var out *core.Outcome
		r := traceOp(tr, t, len(ops)+1, func() error {
			var err error
			out, err = c.solve(e)
			return err
		})
		ops = append(ops, chainOp{r, e, out})
	}
	n := 0
	for _, o := range ops {
		if n > 0 && time.Now().After(end) {
			break
		}
		if o.out == nil {
			continue
		}
		pr := o.e.problem(chainHorizon)
		root := o.span
		eng, err := engine.New(par)
		if err != nil {
			return 0, err
		}
		milpMS, engMS, err := replayChainOp(tr, lt, o.op, root, pr, o.out, eng, map[uint32]bool{})
		if err == nil {
			err = replaySnapshot(tr, lt, o.op, root, eng, pr, dir)
		}
		replayFailed(t, o.opRec, err)
		reconcile(lt, o.ms, milpMS, engMS, true)
		n++
	}
	return n, nil
}

// traceSweep runs sweeps until opsEnd (at least one), then replays them:
// the whole design space as one batch on a fresh 1-worker engine, every
// configuration again on one netsim.Evaluator, and a snapshot round trip.
func traceSweep(tr *tracer, lt layerTotals, t *tally, seed uint64, opsEnd, end time.Time, dir string) (int, error) {
	s := &sweepRunner{seed: seed, variants: genSweep(seed), digests: map[int]string{}}
	type sweepOp struct {
		*opRec
		i   int
		res *exhaustive.Result
	}
	var ops []sweepOp
	for i := 0; i == 0 || time.Now().Before(opsEnd); i++ {
		var res *exhaustive.Result
		r := traceOp(tr, t, len(ops)+1, func() error {
			var err error
			res, err = s.sweep(i)
			return err
		})
		ops = append(ops, sweepOp{r, i, res})
	}
	n := 0
	for _, o := range ops {
		if n > 0 && time.Now().After(end) {
			break
		}
		if o.res == nil {
			continue
		}
		root := o.span
		pr := s.variants[o.i%len(s.variants)].problem(sweepHorizon)
		batchMS, err := replaySweep(tr, lt, o.op, root, pr, o.res, dir)
		replayFailed(t, o.opRec, err)
		addEngineStats(lt, o.res.Stats)
		reconcile(lt, o.ms, 0, batchMS, false)
		n++
	}
	return n, nil
}

func replaySweep(tr *tracer, lt layerTotals, op, root int, pr *design.Problem, res *exhaustive.Result, dir string) (float64, error) {
	pts := pr.Points()
	eng, err := engine.New(1)
	if err != nil {
		return 0, err
	}
	e, err := replayEngine(tr, lt, op, root, pr, pts, eng)
	if err != nil {
		return 0, err
	}
	byKey := map[uint32]exhaustive.Entry{}
	for _, en := range res.All {
		byKey[en.Point.Key()] = en
	}
	for i, p := range pts {
		en := byKey[p.Key()]
		if math.Float64bits(en.PDR) != math.Float64bits(e.results[i].PDR) || math.Float64bits(en.PowerMW) != math.Float64bits(float64(e.results[i].MaxPower)) {
			return e.batchMS, fmt.Errorf("engine replay: %v differs from the sweep's entry", p)
		}
	}
	kernelMS, err := replayNetsim(tr, lt, op, root, pr, pts, e.results)
	if err != nil {
		return e.batchMS, err
	}
	lt.add("engine.dispatch_ms", e.batchMS-kernelMS)
	return e.batchMS, replaySnapshot(tr, lt, op, root, eng, pr, dir)
}

// traceFront runs fronts until opsEnd (at least one), then replays each:
// the per-bound Algorithm 1 runs on one shared engine as the façade runs
// them (core.bound spans, checked against the front's outcomes), and each
// bound's MILP chain, engine batch and netsim re-runs.
func traceFront(tr *tracer, lt layerTotals, t *tally, seed uint64, par int, opsEnd, end time.Time, dir string) (int, error) {
	f := &frontRunner{seed: seed}
	type frontOp struct {
		*opRec
		in    frontInput
		front []core.ParetoPoint
	}
	var ops []frontOp
	for i := 0; i == 0 || time.Now().Before(opsEnd); i++ {
		in := genFront(seed, i)
		var front []core.ParetoPoint
		r := traceOp(tr, t, len(ops)+1, func() error {
			var err error
			front, err = f.front(in)
			return err
		})
		ops = append(ops, frontOp{r, in, front})
	}
	n := 0
	for _, o := range ops {
		if n > 0 && time.Now().After(end) {
			break
		}
		if o.front == nil {
			continue
		}
		milpMS, engMS, err := replayFront(tr, lt, o.op, o.span, o.in, o.front, par, dir)
		replayFailed(t, o.opRec, err)
		reconcile(lt, o.ms, milpMS, engMS, true)
		n++
	}
	return n, nil
}

func replayFront(tr *tracer, lt layerTotals, op, root int, in frontInput, front []core.ParetoPoint, par int, dir string) (milpMS, engMS float64, err error) {
	shared, err := engine.New(par)
	if err != nil {
		return 0, 0, err
	}
	replay, err := engine.New(par)
	if err != nil {
		return 0, 0, err
	}
	simulated := map[uint32]bool{}
	for k, b := range in.Bounds {
		pr := in.problem(frontHorizon)
		pr.PDRMin = b
		id := tr.start(op, root, "core.bound")
		out, err := core.NewOptimizer(pr, core.Options{Engine: shared}).Run()
		if err != nil {
			return milpMS, engMS, err
		}
		lt.add("core.bound_ms", tr.end(id, map[string]float64{"bound": b}))
		lt.add("core.bounds", 1)
		if outcomeDigest(out) != outcomeDigest(front[k].Outcome) {
			return milpMS, engMS, fmt.Errorf("core replay: bound %v differs from the front's", b)
		}
		m, e, err := replayChainOp(tr, lt, op, root, pr, front[k].Outcome, replay, simulated)
		if err != nil {
			return milpMS, engMS, err
		}
		milpMS += m
		engMS += e
	}
	pr := in.problem(frontHorizon)
	return milpMS, engMS, replaySnapshot(tr, lt, op, root, replay, pr, dir)
}

// serveOp is one traced request.
type serveOp struct {
	*opRec
	tenant int
	warm   bool
	rounds []roundRef
	best   string  // design point of the response
	bestPR float64 // and its PDR
	evals  int     // and its evaluation count
}

// traceServe runs the closed loop with every request streamed (to read its
// per-round events) until opsEnd, then replays requests in order: the
// MILP chain against the events, and per tenant one engine batch with
// netsim re-runs, after which the tenant's requests replay as hit batches.
// A request's engine span is the batch for a first-time tenant and the hit
// batch for a repeat, as the server's cache answered it.
func traceServe(tr *tracer, lt layerTotals, t *tally, seed uint64, par int, opsEnd, end time.Time, dir string) (int, error) {
	r, err := setupServe(seed, par)
	if err != nil {
		return 0, err
	}
	s := r.(*serveRunner)
	defer s.close()
	before := s.srv.Engine().Stats()
	var (
		mu  sync.Mutex
		ops []*serveOp
		wg  sync.WaitGroup
	)
	for c := 0; c < par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(opsEnd) {
				var o serveOp
				var raw []byte
				t0 := tr.now()
				var reqErr error
				o.tenant, o.warm, raw, reqErr = s.request(true)
				t1 := tr.now()
				if reqErr == nil {
					reqErr = o.parse(raw)
				}
				mu.Lock()
				id := len(tr.spans) + 1
				tr.spans = append(tr.spans, span{ID: id, Op: len(ops) + 1, Name: "op", Start: t0, End: t1, opRoot: true,
					Attrs: map[string]float64{"tenant": float64(o.tenant), "warm": b2f(o.warm)}})
				t.record(t1-t0, reqErr)
				o.opRec = &opRec{op: len(ops) + 1, span: id, ms: t1 - t0, failed: reqErr != nil}
				ops = append(ops, &o)
				lt.add("serve.requests", 1)
				lt.add("serve.warm", b2f(o.warm))
				lt.add("serve.iterations", float64(len(o.rounds)))
				if reqErr != nil {
					lt.add("serve.failed", 1)
					if se, ok := reqErr.(*statusError); ok && se.code == 429 {
						lt.add("serve.status_429", 1)
					}
				} else {
					lt.add("serve.ok", 1)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	d := s.srv.Engine().Stats().Sub(before)
	var rtts []float64
	for i := 0; i < 5; i++ {
		ms, err := s.health()
		if err != nil {
			return 0, err
		}
		rtts = append(rtts, ms)
	}
	lt["serve.http_rtt_ms"] = median(rtts)

	type tenantReplay struct {
		*engineReplay
		reqs []engine.Request
	}
	replays := map[int]*tenantReplay{}
	n := 0
	perReq := 1 / math.Max(lt["serve.requests"], 1)
	for _, o := range ops {
		if n > 0 && time.Now().After(end) {
			break
		}
		if o.failed {
			continue
		}
		pr := s.mix.Tenants[o.tenant].tenant().problem(serveHorizon)
		m, err := replayMILP(tr, lt, o.op, o.span, pr, o.rounds)
		if err != nil {
			replayFailed(t, o.opRec, err)
			continue
		}
		var engMS float64
		tp := replays[o.tenant]
		if tp == nil {
			eng, err := engine.New(par)
			if err != nil {
				return 0, err
			}
			pts := uniquePoints(m.points)
			e, err := replayEngine(tr, lt, o.op, o.span, pr, pts, eng)
			if err == nil {
				err = checkBest(o, pts, e.results)
			}
			var kernelMS float64
			if err == nil {
				kernelMS, err = replayNetsim(tr, lt, o.op, o.span, pr, pts, e.results)
			}
			if err != nil {
				replayFailed(t, o.opRec, err)
				continue
			}
			lt.add("engine.dispatch_ms", e.batchMS-kernelMS/float64(par))
			tp = &tenantReplay{e, requests(pr, pts)}
			replays[o.tenant] = tp
			if n == 0 {
				if err := replaySnapshot(tr, lt, o.op, o.span, eng, pr, dir); err != nil {
					return 0, err
				}
			}
			engMS = tp.batchMS
		} else {
			if err := replayHits(tr, lt, o.op, o.span, tp.engineReplay, tp.reqs); err != nil {
				replayFailed(t, o.opRec, err)
				continue
			}
			engMS = tp.batchMS
		}
		if o.warm {
			engMS = tp.hitMS
		}
		lt.add("core.iterations", float64(len(o.rounds)))
		lt.add("core.evaluations", float64(o.evals))
		lt.add("engine.submitted", float64(d.Submitted)*perReq)
		lt.add("engine.simulated", float64(d.Simulated)*perReq)
		lt.add("engine.cache_hits", float64(d.CacheHits)*perReq)
		lt.add("engine.dedup_hits", float64(d.DedupHits)*perReq)
		lt.add("engine.disk_hits", float64(d.DiskHits)*perReq)
		reconcile(lt, o.ms, m.ms, engMS, true)
		n++
	}
	return n, nil
}

// parse reads a streamed body's iteration events and result.
func (o *serveOp) parse(raw []byte) error {
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev struct {
			Event    string       `json:"event"`
			PBar     float64      `json:"pbar_star_mw"`
			Pool     int          `json:"pool"`
			Response *serveResult `json:"response"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		switch ev.Event {
		case "iteration":
			o.rounds = append(o.rounds, roundRef{PBar: ev.PBar, Pool: ev.Pool})
		case "result":
			if ev.Response == nil || ev.Response.Design == nil || ev.Response.Iterations != len(o.rounds) {
				return fmt.Errorf("serve stream: result does not match its %d iteration events", len(o.rounds))
			}
			o.best, o.bestPR, o.evals = ev.Response.Design.Point, ev.Response.Design.PDR, ev.Response.Evaluations
		}
	}
	return nil
}

// checkBest requires the response's design among the replayed candidates
// with a bit-identical PDR.
func checkBest(o *serveOp, pts []design.Point, res []*netsim.Result) error {
	for i, p := range pts {
		if p.String() == o.best {
			if math.Float64bits(res[i].PDR) != math.Float64bits(o.bestPR) {
				return fmt.Errorf("engine replay: %v PDR %v, response had %v", p, res[i].PDR, o.bestPR)
			}
			return nil
		}
	}
	return fmt.Errorf("engine replay: response design %s not among the replayed candidates", o.best)
}
