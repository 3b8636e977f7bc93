package engine

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hiopt/internal/netsim"
)

// testConfigs returns a spread of small distinct configurations (2 s
// horizon) so batches exercise real simulations cheaply.
func testConfigs() []netsim.Config {
	var cfgs []netsim.Config
	for _, mac := range []netsim.MACKind{netsim.CSMA, netsim.TDMA} {
		for tx := 0; tx < 3; tx++ {
			cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, mac, netsim.Star, tx)
			cfg.Duration = 2
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func testRequests(keyed bool) []Request {
	cfgs := testConfigs()
	reqs := make([]Request, len(cfgs))
	for i, cfg := range cfgs {
		reqs[i] = Request{Cfg: cfg, Runs: 1, Seed: 1}
		if keyed {
			reqs[i].Key = PointKey(uint32(i + 1))
		}
	}
	return reqs
}

func TestNewRejectsNegativeWorkers(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("New(-1) succeeded; negative worker counts must be rejected")
	} else if !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestZeroWorkersSelectsGOMAXPROCS(t *testing.T) {
	e, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestBatchBitIdenticalAcrossWorkers: batch results must not depend on
// the worker count or on the run, only on the requests.
func TestBatchBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []*netsim.Result {
		e, err := New(workers)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.EvaluateBatch(testRequests(true), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for rep := 0; rep < 2; rep++ {
			got := run(workers)
			if len(got) != len(ref) {
				t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(ref))
			}
			for i := range ref {
				if !reflect.DeepEqual(*got[i], *ref[i]) {
					t.Fatalf("workers=%d rep=%d: result %d diverged from the single-worker reference", workers, rep, i)
				}
			}
		}
	}
}

func TestCacheHitReturnsSameResult(t *testing.T) {
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := testRequests(true)
	first, err := e.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.Stats()
	if s1.Simulated != int64(len(reqs)) || s1.CacheHits != 0 {
		t.Fatalf("first batch stats: %+v", s1)
	}
	for _, r := range reqs {
		if !e.Cached(r.Key) {
			t.Fatalf("key %+v not cached after the batch", r.Key)
		}
	}
	second, err := e.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Stats().Sub(s1)
	if d.Simulated != 0 || d.CacheHits != int64(len(reqs)) {
		t.Fatalf("second batch was not fully cached: %+v", d)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cache returned a different result pointer for request %d", i)
		}
	}
}

// TestDedupWithinBatch: duplicate keys in one concurrent batch must
// simulate exactly once (singleflight), with every duplicate answered by
// the cache or the in-flight leader.
func TestDedupWithinBatch(t *testing.T) {
	e, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	const n = 12
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Cfg: cfg, Runs: 1, Seed: 1, Key: PointKey(7)}
	}
	res, err := e.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Simulated != 1 {
		t.Fatalf("Simulated = %d, want 1 (dedup broken)", s.Simulated)
	}
	if s.CacheHits+s.DedupHits != n-1 {
		t.Fatalf("CacheHits %d + DedupHits %d != %d", s.CacheHits, s.DedupHits, n-1)
	}
	for i := 1; i < n; i++ {
		if res[i] != res[0] {
			t.Fatalf("duplicate request %d got a distinct result", i)
		}
	}
}

func TestNoKeyBypassesCache(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Cfg: testConfigs()[0], Runs: 1, Seed: 1}
	a, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Simulated != 2 || s.CacheHits != 0 {
		t.Fatalf("uncached requests hit the cache: %+v", s)
	}
	if a == b {
		t.Fatal("uncached requests shared a result pointer")
	}
	if !reflect.DeepEqual(*a, *b) {
		t.Fatal("repeated uncached evaluation diverged")
	}
}

// TestRunsAccounting: SimRuns and simulated seconds follow
// max(1, Runs) × Duration per fresh request, split by fidelity.
func TestRunsAccounting(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	if _, err := e.Evaluate(context.Background(), Request{Cfg: cfg, Runs: 3, Seed: 1, Key: PointKey(1)}); err != nil {
		t.Fatal(err)
	}
	screen := cfg
	screen.Duration /= 2
	if _, err := e.Evaluate(context.Background(), Request{Cfg: screen, Runs: 0, Seed: 1, Key: ScreenKey(1)}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.SimRuns != 4 {
		t.Fatalf("SimRuns = %d, want 3 + max(1,0)", s.SimRuns)
	}
	if s.FullSeconds != cfg.Duration*3 || s.ScreenSeconds != screen.Duration {
		t.Fatalf("seconds split = %v full / %v screen, want %v / %v",
			s.FullSeconds, s.ScreenSeconds, cfg.Duration*3, screen.Duration)
	}
}

// TestPanicRecoveredIntoError: a panicking evaluation becomes an error
// naming the request, the failed key is not cached, and the engine stays
// usable (the poisoned evaluator is replaced).
func TestPanicRecoveredIntoError(t *testing.T) {
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := testRequests(true)
	reqs[0].Label = "victim"
	reqs[0].Pre = func() { panic("injected failure") }
	_, batchErr := e.EvaluateBatch(reqs, nil)
	if batchErr == nil {
		t.Fatal("batch succeeded despite a panicking request")
	}
	for _, want := range []string{"panicked", "victim", "injected failure"} {
		if !strings.Contains(batchErr.Error(), want) {
			t.Fatalf("error %q missing %q", batchErr, want)
		}
	}
	if e.Cached(reqs[0].Key) {
		t.Fatal("failed evaluation was cached")
	}
	// The engine must still evaluate after replacing the evaluator.
	reqs[0].Pre = nil
	if _, err := e.EvaluateBatch(reqs, nil); err != nil {
		t.Fatalf("engine unusable after a recovered panic: %v", err)
	}
}

// TestErrorDeterministicAcrossRuns: the joined batch error must not
// depend on goroutine scheduling.
func TestErrorDeterministicAcrossRuns(t *testing.T) {
	msg := func() string {
		e, err := New(4)
		if err != nil {
			t.Fatal(err)
		}
		reqs := testRequests(false)
		for i := range reqs {
			i := i
			if i%2 == 0 {
				reqs[i].Label = reqs[i].Cfg.Label()
				reqs[i].Pre = func() { panic("boom") }
			}
		}
		_, batchErr := e.EvaluateBatch(reqs, nil)
		if batchErr == nil {
			t.Fatal("batch succeeded despite panicking requests")
		}
		return batchErr.Error()
	}
	if a, b := msg(), msg(); a != b {
		t.Fatalf("batch error depends on scheduling:\n a: %s\n b: %s", a, b)
	}
}

// TestWorkerPoolIsFixedSize: a large batch must run on at most Workers
// concurrent goroutines — no per-item spawning.
func TestWorkerPoolIsFixedSize(t *testing.T) {
	const workers = 3
	e, err := New(workers)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	cfg.Duration = 0.5
	base := int64(runtime.NumGoroutine())
	var peakG atomic.Int64
	reqs := make([]Request, 24)
	for i := range reqs {
		reqs[i] = Request{Cfg: cfg, Runs: 1, Seed: 1, Pre: func() {
			g := int64(runtime.NumGoroutine())
			for {
				p := peakG.Load()
				if g <= p || peakG.CompareAndSwap(p, g) {
					break
				}
			}
		}}
	}
	if _, err := e.EvaluateBatch(reqs, nil); err != nil {
		t.Fatal(err)
	}
	// Allow slack for runtime/test goroutines; goroutine-per-item would
	// add ~len(reqs) instead.
	if p := peakG.Load(); p > base+workers+8 {
		t.Fatalf("goroutine peak %d vs baseline %d: batch is not O(Workers)", p, base)
	}
}

// TestRepParallelMergeMatchesRunAveraged is the tentpole's bit-identity
// property: a multi-replication request fanned out across the worker pool
// must merge to exactly the sequential netsim.RunAveraged answer, for
// every worker count (also exercised under -race by `make race`).
func TestRepParallelMergeMatchesRunAveraged(t *testing.T) {
	const runs, seed = 3, 9
	cfgs := testConfigs()
	want := make([]*netsim.Result, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		want[i], err = netsim.RunAveraged(cfg, runs, seed)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		e, err := New(workers)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]Request, len(cfgs))
		for i, cfg := range cfgs {
			reqs[i] = Request{Cfg: cfg, Runs: runs, Seed: seed}
		}
		got, err := e.EvaluateBatch(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: request %d diverged from sequential RunAveraged:\n got  %+v\nwant %+v",
					workers, i, got[i], want[i])
			}
		}
		if s := e.Stats(); s.SimRuns != int64(runs*len(cfgs)) {
			t.Fatalf("workers=%d: SimRuns = %d, want %d", workers, s.SimRuns, runs*len(cfgs))
		}
	}
}

// TestReplicationFanOutOccupiesWorkers is the Workers-plumbing
// regression: a single-point batch with runs=8 must fan its replications
// across up to 8 workers, instead of serializing inside one. The engine
// itself records the peak number of sub-tasks running at once. The
// request's Pre hook, which the first replication runs while the others
// wait for it, holds until all 8 have started, so the peak does not
// depend on how the scheduler interleaves short replications.
func TestReplicationFanOutOccupiesWorkers(t *testing.T) {
	const workers, runs = 8, 8
	e, err := New(workers)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	pre := func() {
		for deadline := time.Now().Add(10 * time.Second); e.running.Load() < workers && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	res, err := e.EvaluateBatch([]Request{{Cfg: cfg, Runs: runs, Seed: 1, Pre: pre}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := e.peakRunning.Load(); p < workers {
		t.Fatalf("peak of %d concurrently running replications: 8 replications did not occupy %d workers", p, workers)
	}
	if s := e.Stats(); s.Simulated != 1 || s.SimRuns != runs {
		t.Fatalf("stats = %+v, want 1 simulated / %d runs", s, runs)
	}
	want, err := netsim.RunAveraged(cfg, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0], want) {
		t.Fatal("fanned-out single request diverged from sequential RunAveraged")
	}
}

// TestDedupWithReplications: duplicate multi-replication keys still
// simulate once, and every duplicate shares the merged result.
func TestDedupWithReplications(t *testing.T) {
	e, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	const n, runs = 6, 3
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Cfg: cfg, Runs: runs, Seed: 1, Key: PointKey(5)}
	}
	res, err := e.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Simulated != 1 || s.SimRuns != runs {
		t.Fatalf("stats = %+v, want 1 simulated / %d runs", s, runs)
	}
	for i := 1; i < n; i++ {
		if res[i] != res[0] {
			t.Fatalf("duplicate request %d got a distinct result", i)
		}
	}
	want, err := netsim.RunAveraged(cfg, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0], want) {
		t.Fatal("deduplicated merged result diverged from sequential RunAveraged")
	}
}

// TestAdaptiveUndecidedMatchesNonAdaptive: a gate that cannot decide
// within the budget must spend it all and reproduce the non-adaptive
// result bit-for-bit with zero recorded savings.
func TestAdaptiveUndecidedMatchesNonAdaptive(t *testing.T) {
	cfg := testConfigs()[0]
	const runs, seed = 4, 3
	want, err := netsim.RunAveraged(cfg, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	never := &netsim.Gate{MinRuns: runs + 1}
	got, err := e.Evaluate(context.Background(), Request{Cfg: cfg, Runs: runs, Seed: seed, Adaptive: never})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("undecided adaptive request diverged from RunAveraged")
	}
	if s := e.Stats(); s.SimRuns != runs || s.RepsSaved != 0 || s.SavedSeconds != 0 {
		t.Fatalf("stats = %+v, want %d runs and no savings", s, runs)
	}
}

// TestAdaptiveEarlyStopSavesReps: a decisive gate stops a clearly-passing
// configuration early, the savings land in the stats (and their String
// rendering), and the truncated average matches netsim's replication
// loop run directly with the same gate.
func TestAdaptiveEarlyStopSavesReps(t *testing.T) {
	cfg := testConfigs()[2] // highest CSMA tx mode: comfortably above a loose bound
	const budget, seed = 6, 3
	gate := &netsim.Gate{PDRMin: 0.05, Margin: 0.01, Confidence: 0.95}
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Evaluate(context.Background(), Request{Cfg: cfg, Runs: budget, Seed: seed, Key: PointKey(9), Adaptive: gate})
	if err != nil {
		t.Fatal(err)
	}
	want, ran, err := netsim.NewEvaluator().Replicate(nil, cfg, budget, seed, gate)
	if err != nil {
		t.Fatal(err)
	}
	if ran >= budget {
		t.Fatalf("gate did not stop early (ran %d of %d); pick a clearer config", ran, budget)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("engine adaptive result diverged from Evaluator.Replicate")
	}
	s := e.Stats()
	if s.SimRuns != int64(ran) || s.RepsSaved != int64(budget-ran) {
		t.Fatalf("stats = %+v, want %d runs and %d saved", s, ran, budget-ran)
	}
	if want := cfg.Duration * float64(budget-ran); s.SavedSeconds != want {
		t.Fatalf("SavedSeconds = %v, want %v", s.SavedSeconds, want)
	}
	if msg := s.String(); !strings.Contains(msg, "reps saved") {
		t.Fatalf("Stats.String() = %q, missing the reps-saved clause", msg)
	}
	// The adaptive result is cached under its key like any other.
	if !e.Cached(PointKey(9)) {
		t.Fatal("adaptive result was not cached")
	}
}

func TestProgressCallback(t *testing.T) {
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := testRequests(true)
	calls, last := 0, 0
	_, err = e.EvaluateBatch(reqs, func(done, total int) {
		calls++
		last = done
		if total != len(reqs) {
			t.Errorf("total = %d, want %d", total, len(reqs))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(reqs) || last != len(reqs) {
		t.Fatalf("progress calls = %d, last done = %d, want %d", calls, last, len(reqs))
	}
}
