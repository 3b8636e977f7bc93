package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/engine"
)

func TestRunCtxCancelled(t *testing.T) {
	pr := fastProblem(0.9)
	o := NewOptimizer(pr, Options{PoolLimit: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on a done context returned %v, want context.Canceled", err)
	}
	// Cancellation must not poison the optimizer: a fresh run succeeds.
	out, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Best == nil {
		t.Fatal("run after cancellation found no design")
	}
}

func TestRunCtxCancelMidSimulation(t *testing.T) {
	pr := fastProblem(0.9)
	o := NewOptimizer(pr, Options{PoolLimit: 8})
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the first candidate's evaluation: the batch must
	// stop at sub-task granularity and RunCtx must surface the ctx error.
	o.evalHook = func(design.Point) { cancel() }
	if _, err := o.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx cancelled mid-simulation returned %v, want context.Canceled", err)
	}
}

// TestOnIterationEvents: the streaming hook must see every recorded
// iteration, in order, with the same P̄* trace as Outcome.Iterations.
func TestOnIterationEvents(t *testing.T) {
	pr := fastProblem(0.9)
	var events []IterationEvent
	o := NewOptimizer(pr, Options{
		OnIteration: func(ev IterationEvent) { events = append(events, ev) },
	})
	out, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(out.Iterations) {
		t.Fatalf("hook saw %d events, outcome records %d iterations", len(events), len(out.Iterations))
	}
	for i, ev := range events {
		if ev.Iter != i {
			t.Fatalf("event %d carries iter %d", i, ev.Iter)
		}
		if ev.PBarStar != out.Iterations[i].PBarStar {
			t.Fatalf("event %d P̄*=%v, iteration records %v", i, ev.PBarStar, out.Iterations[i].PBarStar)
		}
		if ev.PoolSize != len(out.Iterations[i].Candidates) {
			t.Fatalf("event %d pool=%d, iteration has %d candidates", i, ev.PoolSize, len(out.Iterations[i].Candidates))
		}
	}
	last := events[len(events)-1]
	if out.Best != nil && (last.BestPowerMW != out.Best.PowerMW || last.BestPoint == "") {
		t.Fatalf("final event best=%v %q, outcome best %v", last.BestPowerMW, last.BestPoint, out.Best.PowerMW)
	}
}

// TestCacheSaltSeparatesTenants: two optimizers sharing one engine with
// different salts must not answer each other's keys, while equal salts
// share the cache fully — and the salt must never change the result.
func TestCacheSaltSeparatesTenants(t *testing.T) {
	eng, err := engine.New(2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(salt uint64) *Outcome {
		pr := fastProblem(0.9)
		out, err := NewOptimizer(pr, Options{Engine: eng, CacheSalt: salt}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if out.Best == nil {
			t.Fatal("no design found")
		}
		return out
	}
	a := run(1)
	if a.Engine.CacheHits != 0 {
		t.Fatalf("first tenant hit a cold cache: %+v", a.Engine)
	}
	// A different salt is a disjoint namespace: everything re-simulates.
	b := run(2)
	if b.Engine.CacheHits != 0 || b.Engine.Simulated == 0 {
		t.Fatalf("salt 2 shared salt 1's entries: %+v", b.Engine)
	}
	// The same salt shares fully: no fresh simulations.
	c := run(2)
	if c.Engine.Simulated != 0 {
		t.Fatalf("salt 2 rerun re-simulated %d configs: %+v", c.Engine.Simulated, c.Engine)
	}
	// Salting changes cache identity only, never results.
	if !reflect.DeepEqual(a.Best, b.Best) {
		t.Fatalf("salted runs diverged: %+v vs %+v", a.Best, b.Best)
	}
}
