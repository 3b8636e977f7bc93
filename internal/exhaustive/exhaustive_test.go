package exhaustive

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/engine"
)

// smallProblem restricts to 4-node topologies at low fidelity so the full
// sweep stays cheap on one core (96 configurations).
func smallProblem(pdrMin float64) *design.Problem {
	pr := design.PaperProblem(pdrMin)
	pr.Duration = 15
	pr.Runs = 1
	pr.Constraints.MaxNodes = 4
	return pr
}

// newEngine builds a private engine with the given worker count.
func newEngine(t *testing.T, workers int) *engine.Engine {
	t.Helper()
	eng, err := engine.New(workers)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSearchCoversWholeSpace(t *testing.T) {
	pr := smallProblem(0.5)
	res, err := Search(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(pr.Points())
	if res.Evaluations != want || len(res.All) != want {
		t.Fatalf("evaluated %d/%d configs", res.Evaluations, want)
	}
	if res.Simulations != want*pr.Runs {
		t.Errorf("Simulations = %d, want %d", res.Simulations, want*pr.Runs)
	}
	keys := map[uint32]bool{}
	for _, e := range res.All {
		if keys[e.Point.Key()] {
			t.Fatalf("duplicate evaluation of %v", e.Point)
		}
		keys[e.Point.Key()] = true
	}
}

func TestSearchResultsSortedByPower(t *testing.T) {
	res, err := Search(smallProblem(0.5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.All); i++ {
		if res.All[i].PowerMW < res.All[i-1].PowerMW {
			t.Fatalf("entries not sorted at %d", i)
		}
	}
}

func TestBestIsMinimumPowerFeasible(t *testing.T) {
	pr := smallProblem(0.5)
	res, err := Search(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible configuration found at PDRmin=50%")
	}
	if !res.Best.Feasible {
		t.Fatal("Best is marked infeasible")
	}
	for _, e := range res.All {
		if e.Feasible && e.PowerMW < res.Best.PowerMW {
			t.Fatalf("entry %v beats Best", e.Point)
		}
	}
}

func TestInfeasibleBoundYieldsNoBest(t *testing.T) {
	pr := smallProblem(1.5) // PDR can never exceed 1
	pr.Duration = 10
	res, err := Search(pr, Options{FeasTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		t.Errorf("Best = %+v for an unsatisfiable bound", res.Best)
	}
}

func TestProgressCallback(t *testing.T) {
	pr := smallProblem(0.5)
	calls := 0
	last := 0
	_, err := Search(pr, Options{Progress: func(done, total int) {
		calls++
		if total != len(pr.Points()) {
			t.Errorf("total = %d", total)
		}
		last = done
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(pr.Points()) || last != len(pr.Points()) {
		t.Errorf("progress calls = %d, last done = %d", calls, last)
	}
}

// TestGoroutineCountStaysBounded: the sweep must run on the engine's
// fixed worker pool — O(Workers) goroutines, not O(points).
func TestGoroutineCountStaysBounded(t *testing.T) {
	pr := smallProblem(0.5)
	pr.Duration = 5
	const workers = 2
	base := int64(runtime.NumGoroutine())
	var peak atomic.Int64
	_, err := Search(pr, Options{Engine: newEngine(t, workers), Progress: func(done, total int) {
		g := int64(runtime.NumGoroutine())
		for {
			p := peak.Load()
			if g <= p || peak.CompareAndSwap(p, g) {
				break
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Goroutine-per-point would add ~len(points) = 96; the fixed pool adds
	// at most `workers` plus runtime/test slack.
	if p := peak.Load(); p > base+workers+8 {
		t.Fatalf("goroutine peak %d vs baseline %d: sweep is not O(Workers)", p, base)
	}
}

// TestSharedEngineReusesCache: a second sweep through the same engine
// must resolve entirely from the cache.
func TestSharedEngineReusesCache(t *testing.T) {
	eng, err := engine.New(2)
	if err != nil {
		t.Fatal(err)
	}
	pr := smallProblem(0.5)
	first, err := Search(pr, Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Simulated != int64(len(pr.Points())) {
		t.Fatalf("first sweep simulated %d of %d points", first.Stats.Simulated, len(pr.Points()))
	}
	second, err := Search(pr, Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Simulated != 0 || second.Stats.CacheHits != int64(len(pr.Points())) {
		t.Fatalf("second sweep was not fully cached: %+v", second.Stats)
	}
	if first.Best.Point != second.Best.Point {
		t.Fatalf("cached sweep changed the optimum: %v vs %v", first.Best.Point, second.Best.Point)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Search(smallProblem(0.5), Options{Engine: newEngine(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(smallProblem(0.5), Options{Engine: newEngine(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Point != b.Best.Point || a.Best.PowerMW != b.Best.PowerMW {
		t.Errorf("worker count changed the result: %+v vs %+v", a.Best, b.Best)
	}
}
