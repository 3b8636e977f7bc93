package engine

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hiopt/internal/netsim"
)

func TestNewShardedRejectsNegativeShards(t *testing.T) {
	if _, err := NewSharded(1, -1); err == nil {
		t.Fatal("NewSharded(1, -1) succeeded; negative shard counts must be rejected")
	} else if !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestShardCountRounding: no shard count is rounded any more — 0
// selects DefaultShards and a power of two is kept exactly as given
// (TestCheckShards covers the counts NewSharded rejects).
func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, DefaultShards}, {1, 1}, {2, 2}, {4, 4}, {16, 16}, {1024, 1024},
	} {
		e, err := NewSharded(1, tc.ask)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Shards(); got != tc.want {
			t.Fatalf("NewSharded(1, %d).Shards() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func shardRun(t *testing.T, shards int) []*netsim.Result {
	t.Helper()
	e, err := NewSharded(4, shards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.EvaluateBatch(testRequests(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBatchBitIdenticalAcrossShardCounts: the shard count only changes
// which mutex guards a key — results must be bit-identical for any
// striping, exactly as they are for any worker count.
func TestBatchBitIdenticalAcrossShardCounts(t *testing.T) {
	ref := shardRun(t, 1)
	for _, shards := range []int{1, 2, 4, 16, 64} {
		got := shardRun(t, shards)
		if len(got) != len(ref) {
			t.Fatalf("shards=%d: %d results, want %d", shards, len(got), len(ref))
		}
		for i := range ref {
			if !reflect.DeepEqual(*got[i], *ref[i]) {
				t.Fatalf("shards=%d: result %d diverged from the single-shard reference", shards, i)
			}
		}
	}
}

// TestShardStress hammers a small shard array from many goroutines with
// colliding and disjoint keys at several worker-pool sizes: the race
// detector checks the locking, the result comparison checks that
// singleflight and the cache still return one canonical Result per key,
// and the counter identity checks that every submission is accounted to
// exactly one of simulated/cache/dedup/disk.
func TestShardStress(t *testing.T) {
	const goroutines = 8
	const rounds = 3
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		e, err := NewSharded(workers, 4)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]*netsim.Result, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				reqs := testRequests(true)
				if g%2 == 1 {
					// Odd goroutines use disjoint keys (still valid: a
					// key must map to one simulation, not vice versa).
					for i := range reqs {
						reqs[i].Key = PointKey(uint32(1000 + g*100 + i))
					}
				}
				for r := 0; r < rounds; r++ {
					res, err := e.EvaluateBatch(reqs, nil)
					if err != nil {
						t.Errorf("workers=%d goroutine=%d: %v", workers, g, err)
						return
					}
					out[g] = res
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		// Every goroutine simulated the same configurations, so all
		// results must agree bit-for-bit no matter which goroutine's
		// leader ran the simulation.
		for g := 1; g < goroutines; g++ {
			for i := range out[0] {
				if !reflect.DeepEqual(*out[g][i], *out[0][i]) {
					t.Fatalf("workers=%d: goroutine %d result %d diverged", workers, g, i)
				}
			}
		}
		st := e.Stats()
		if st.Submitted != st.Simulated+st.CacheHits+st.DedupHits+st.DiskHits {
			t.Fatalf("workers=%d: counter identity broken: %+v", workers, st)
		}
		if want := int64(goroutines * rounds * len(testConfigs())); st.Submitted != want {
			t.Fatalf("workers=%d: Submitted = %d, want %d", workers, st.Submitted, want)
		}
	}
}

// TestCacheHitFastPathZeroAllocs pins the satellite: answering a fully
// cached batch — and a single cached Evaluate — must not allocate.
func TestCacheHitFastPathZeroAllocs(t *testing.T) {
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := testRequests(true)
	results := make([]*netsim.Result, len(reqs))
	if err := e.EvaluateBatchInto(context.Background(), results, reqs, nil); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := e.EvaluateBatchInto(context.Background(), results, reqs, nil); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("cached EvaluateBatchInto allocated %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Evaluate(context.Background(), reqs[0]); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("cached Evaluate allocated %.1f objects/op, want 0", allocs)
	}
}

func TestEvaluateBatchIntoLengthMismatch(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EvaluateBatchInto(context.Background(), make([]*netsim.Result, 1), testRequests(true), nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestStatsStringReportsDiskHits(t *testing.T) {
	s := Stats{Submitted: 3, CacheHits: 1, DiskHits: 2}
	if msg := s.String(); !strings.Contains(msg, "2 disk hits") {
		t.Fatalf("Stats.String() = %q, want it to mention disk hits", msg)
	}
	if msg := (Stats{Submitted: 1, Simulated: 1}).String(); strings.Contains(msg, "disk") {
		t.Fatalf("Stats.String() = %q mentions disk hits with none recorded", msg)
	}
}
