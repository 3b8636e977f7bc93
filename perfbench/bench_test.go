package main

import (
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"hiopt/internal/core"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Fatal("p90 of 99 samples reported; only 9 lie beyond it")
	}
	xs = append(xs, 100)
	p90, ok := percentile(xs, 0.9)
	if !ok || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", p90, ok)
	}
	if m, ok := percentile([]float64{3, 1, 2}, 0.5); !ok || m != 2 {
		t.Fatalf("median of 3 samples = %v, %v", m, ok)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of 1..4 = %v", m)
	}
}

func TestGeneratorsSeeded(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]func(seed uint64) any{
		"chain": func(s uint64) any { return genChain(cat, s) },
		"sweep": func(s uint64) any { return genSweep(s) },
		"serve": func(s uint64) any { return genServe(s, 1000) },
		"front": func(s uint64) any { return []frontInput{genFront(s, 0), genFront(s, 7)} },
	}
	for name, gen := range gens {
		a, b, c := encode(t, gen(5)), encode(t, gen(5)), encode(t, gen(6))
		if a != b {
			t.Errorf("%s: seed 5 gave different inputs on two calls", name)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", name)
		}
	}
}

// TestServeMixGrowsOnDemand asks for requests far past the drawn length:
// the stream grows instead of running out, and it is the stream an eager
// draw of that length gives.
func TestServeMixGrowsOnDemand(t *testing.T) {
	lazy := genServe(3, 10)
	const n = 20000
	for i := 0; i < n; i++ {
		if ti := lazy.request(i); ti < 0 || ti >= len(lazy.Tenants) {
			t.Fatalf("request %d: tenant %d of %d", i, ti, len(lazy.Tenants))
		}
	}
	if a, b := encode(t, lazy), encode(t, genServe(3, n)); a != b {
		t.Fatal("stream drawn on demand differs from one drawn at once")
	}
	if got, want := len(lazy.Tenants), n/defaultServeNewEvery; got != want {
		t.Fatalf("%d tenants in %d requests, want %d", got, n, want)
	}
}

// TestRSSTrackerSeesStretchPeak touches and frees 64 MiB in the second of
// three stretches: that stretch's peak includes it, the median does not.
func TestRSSTrackerSeesStretchPeak(t *testing.T) {
	if _, err := peakRSSMB(); err != nil || resetPeakRSS() != nil {
		t.Skip("no resettable peak RSS here:", err)
	}
	tr := trackRSS(time.Hour)
	tr.cut()
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = 1
	}
	runtime.KeepAlive(buf)
	buf = nil
	debug.FreeOSMemory()
	tr.cut()
	med := tr.finish()
	if len(tr.peaks) != 3 || tr.peaks[1] < 64 || med >= 64 {
		t.Fatalf("stretch peaks %v, median %v", tr.peaks, med)
	}
}

func encode(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestChainDeckClassMix(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		deck := genChain(cat, seed)
		deep := 0
		for _, e := range deck {
			if e.Class == classDeep {
				deep++
			}
		}
		if len(deck) != deckShallow+deckDeep || deep != deckDeep || deck[0].Class != classDeep {
			t.Fatalf("seed %d: deck of %d with %d deep, first %s", seed, len(deck), deep, deck[0].Class)
		}
	}
}

// replayCatalogued solves the first catalogued problem of a class and
// replays its MILP chain; the replay must reproduce every round's P̄*, pool
// and the op's pivot and node totals.
func replayCatalogued(t *testing.T, class string, wantPool int) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cat {
		if e.Class != class {
			continue
		}
		pr := e.problem(chainHorizon)
		out, err := core.NewOptimizer(pr, core.Options{}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkChain(e, out); err != nil {
			t.Fatal(err)
		}
		tr := &tracer{t0: time.Now()}
		lt := layerTotals{}
		rep, err := replayMILP(tr, lt, 1, 0, pr, roundsOf(out))
		if err != nil {
			t.Fatal(err)
		}
		if rep.pivots != out.LPIterations || rep.nodes != out.MILPNodes {
			t.Fatalf("replay %d pivots %d nodes, op %d %d", rep.pivots, rep.nodes, out.LPIterations, out.MILPNodes)
		}
		if int(lt["milp.calls"]) != len(out.Iterations)+1 {
			t.Fatalf("replay made %v calls for %d rounds", lt["milp.calls"], len(out.Iterations))
		}
		maxPool := 0
		for _, n := range e.Pools {
			maxPool = max(maxPool, n)
		}
		if maxPool != wantPool {
			t.Fatalf("catalogued %s problem has largest pool %d, want %d", class, maxPool, wantPool)
		}
		return
	}
	t.Fatalf("no %s problem in the catalog", class)
}

func TestMILPReplayThreeRounds(t *testing.T) { replayCatalogued(t, classShallow, 16) }

func TestMILPReplayDeepClass(t *testing.T) {
	if testing.Short() {
		t.Skip("the 132-member pool call takes about 5 s")
	}
	replayCatalogued(t, classDeep, 132)
}

func TestMILPReplayRejectsWrongRound(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	e := cat[0]
	pr := e.problem(chainHorizon)
	out, err := core.NewOptimizer(pr, core.Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	rounds := roundsOf(out)
	rounds[1].PBar *= 1 + 1e-12
	if _, err := replayMILP(&tracer{t0: time.Now()}, layerTotals{}, 1, 0, pr, rounds); err == nil {
		t.Fatal("replay accepted a P̄* one ulp-scale off")
	}
}

func TestOkFracCountsInjectedFailure(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	good := cat[0]
	bad := good
	bad.Digest = "0000000000000000" // an output that can never match
	c := &chainRunner{deck: []chainEntry{good, bad}}
	var tl tally
	c.ops(time.Now(), &tl) // one pass: the deadline is already past
	if tl.attempts != 2 || tl.failed != 1 || len(tl.lat) != 2 {
		t.Fatalf("attempted %d failed %d samples %d; want 2, 1, 2", tl.attempts, tl.failed, len(tl.lat))
	}
	if f := tl.okFrac(); f != 0.5 {
		t.Fatalf("ok_frac %v, want 0.5", f)
	}
	// A replay mismatch fails a passed op once, keeping its sample.
	r := &opRec{}
	replayFailed(&tl, r, errors.New("mismatch"))
	replayFailed(&tl, r, errors.New("mismatch again"))
	if tl.failed != 2 || tl.attempts != 2 || tl.okFrac() != 0 {
		t.Fatalf("after a replay mismatch: attempted %d failed %d", tl.attempts, tl.failed)
	}
}

// fakeRunner records one op per call with a fixed verdict.
type fakeRunner struct{ err error }

func (f fakeRunner) ops(deadline time.Time, t *tally) { t.record(1, f.err) }
func (f fakeRunner) close()                           {}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not next to perfbench:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	res, err := runTimed(func(uint64, int) (runner, error) { return fakeRunner{}, nil }, 1, 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	same(t, "end_to_end", b.EndToEnd, res.Metrics)
	same(t, "per_layer", b.PerLayer, layerMetrics(layerTotals{}, 0, nil))
}

func same(t *testing.T, group string, want []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: BENCHMARK.json names %d metrics, the run prints %d", group, len(want), len(got))
	}
	for _, w := range want {
		if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
			t.Errorf("%s: %s [%s] printed as %+v", group, w.Name, w.Unit, m)
		}
	}
}

func TestRunTimedCountsFailedOps(t *testing.T) {
	res, err := runTimed(func(uint64, int) (runner, error) { return fakeRunner{errors.New("injected")}, nil }, 1, 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 1 || res.Failed != 1 || res.Metrics["ok_frac"].Value != 0 {
		t.Fatalf("injected failure reported as %+v", res)
	}
}
