package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"hiopt/internal/netsim"
)

func TestBatchCancelledBeforeStart(t *testing.T) {
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvaluateBatchCtx(ctx, testRequests(true), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if s := e.Stats(); s.Simulated != 0 || s.Submitted != 0 {
		t.Fatalf("pre-cancelled batch touched the engine: %+v", s)
	}
}

// TestBatchCancelMidFlight: cancelling the context mid-batch must stop
// fresh work at sub-task granularity — replications already running
// finish, nothing new starts — and the abandoned keys must stay
// retryable (unregistered, not poisoned) for later batches.
func TestBatchCancelMidFlight(t *testing.T) {
	e, err := New(1) // one worker makes the claim order deterministic
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reqs := testRequests(true)
	reqs[0].Pre = cancel // fires just before the first fresh simulation
	_, err = e.EvaluateBatchCtx(ctx, reqs, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if s := e.Stats(); s.Simulated != 1 {
		// Request 0 was already claimed when Pre cancelled; every later
		// request must have been skipped.
		t.Fatalf("cancelled batch simulated %d requests, want exactly 1: %+v", s.Simulated, s)
	}
	// The skipped keys must be retryable: a fresh uncancelled batch over
	// the same requests succeeds, reusing request 0's published result.
	retry := testRequests(true)
	res, err := e.EvaluateBatch(retry, nil)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("retry result %d is nil", i)
		}
	}
	if s := e.Stats(); s.CacheHits != 1 || s.Simulated != int64(len(retry)) {
		t.Fatalf("retry stats: want 1 cache hit (request 0) and %d total simulated, got %+v", len(retry), s)
	}
}

// TestWaiterRetriesAfterForeignAbort: tenant isolation. Batch A leads
// the in-flight evaluation of a key and is cancelled before that
// sub-task runs; batch B, enlisted as a dedup waiter on A's entry, must
// not inherit A's cancellation — it promotes itself to leader, simulates
// the key itself, and returns a result bit-identical to an undisturbed
// evaluation.
func TestWaiterRetriesAfterForeignAbort(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := testConfigs()
	key := PointKey(77)

	ctx, cancel := context.WithCancel(context.Background())
	aStarted := make(chan struct{})
	bEnlisted := make(chan struct{})
	// A's first request holds the single worker until B is enlisted as a
	// waiter on A's in-flight entry for key; then A cancels itself, so
	// the key's sub-task is skipped and errAborted is published.
	aReqs := []Request{
		{Cfg: cfgs[0], Runs: 1, Seed: 1, Key: PointKey(76), Pre: func() {
			close(aStarted)
			<-bEnlisted
			cancel()
		}},
		{Cfg: cfgs[1], Runs: 2, Seed: 1, Key: key},
	}
	aErr := make(chan error, 1)
	go func() {
		_, err := e.EvaluateBatchCtx(ctx, aReqs, nil)
		aErr <- err
	}()
	<-aStarted

	bReqs := []Request{{Cfg: cfgs[1], Runs: 2, Seed: 1, Key: key}}
	bRes := make(chan []*netsim.Result, 1)
	bErrCh := make(chan error, 1)
	go func() {
		res, err := e.EvaluateBatch(bReqs, nil)
		bRes <- res
		bErrCh <- err
	}()
	// B's enlistment is observable as the engine's dedup-hit counter: it
	// ticks exactly when B's resolution pass finds A's in-flight entry.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().DedupHits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch B never enlisted on batch A's in-flight entry")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(bEnlisted)

	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("batch A returned %v, want context.Canceled", err)
	}
	res := <-bRes
	if err := <-bErrCh; err != nil {
		t.Fatalf("batch B inherited the foreign cancellation: %v", err)
	}

	// B's result must be bit-identical to an undisturbed evaluation.
	ref, err := netsim.RunAveraged(cfgs[1], 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res[0], *ref) {
		t.Fatal("retried result diverged from the undisturbed evaluation")
	}
	if !e.Cached(key) {
		t.Fatal("retried key was not published to the cache")
	}
	s := e.Stats()
	// A simulated its first request, B simulated the retried key; B's
	// dedup hit was reclassified when it promoted itself to leader.
	if s.Simulated != 2 || s.DedupHits != 0 {
		t.Fatalf("stats after retry: want Simulated=2 DedupHits=0, got %+v", s)
	}
}

// TestWaiterWatchesOwnContext: a waiter blocked on a foreign leader must
// wake on its own cancellation instead of staying parked until the
// leader finishes.
func TestWaiterWatchesOwnContext(t *testing.T) {
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := testConfigs()
	key := PointKey(42)
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	aReqs := []Request{{Cfg: cfgs[0], Runs: 1, Seed: 1, Key: key, Pre: func() {
		close(leaderIn)
		<-leaderGo
	}}}
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		if _, err := e.EvaluateBatch(aReqs, nil); err != nil {
			t.Errorf("leader batch failed: %v", err)
		}
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan error, 1)
	go func() {
		_, err := e.EvaluateBatchCtx(ctx, []Request{{Cfg: cfgs[0], Runs: 1, Seed: 1, Key: key}}, nil)
		bDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().DedupHits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never enlisted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-bDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter stayed parked on the foreign leader")
	}
	close(leaderGo)
	<-aDone
}

func TestEvaluateCtxAnswersCacheAfterCancel(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()[0]
	req := Request{Cfg: cfg, Runs: 1, Seed: 1, Key: PointKey(5)}
	want, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := e.Evaluate(ctx, req)
	if err != nil || got != want {
		t.Fatalf("cache hit after cancel: res=%p err=%v, want the cached %p", got, err, want)
	}
	// A fresh (uncached) request under a done context must not simulate.
	if _, err := e.Evaluate(ctx, Request{Cfg: cfg, Runs: 1, Seed: 9, Key: PointKey(6)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("fresh request under done ctx returned %v, want context.Canceled", err)
	}
}

// TestCheckShards: NewSharded is the one shard-count validator. It
// accepts 0 and powers of two, and rejects a negative count or any other
// count, naming the problem, instead of rounding it.
func TestCheckShards(t *testing.T) {
	for _, ok := range []int{0, 1, 2, 4, 16, 1024} {
		if _, err := NewSharded(1, ok); err != nil {
			t.Fatalf("NewSharded(1, %d) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []int{3, 5, 10, 17} {
		if _, err := NewSharded(1, bad); err == nil || !strings.Contains(err.Error(), "not a power of two") {
			t.Fatalf("NewSharded(1, %d) = %v; want a not-a-power-of-two error", bad, err)
		}
	}
	if _, err := NewSharded(1, -1); err == nil {
		t.Fatal("NewSharded(1, -1) succeeded; want an error")
	}
}
