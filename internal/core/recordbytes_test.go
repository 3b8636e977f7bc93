package core

import (
	"runtime"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/engine"
)

// liveHeap is the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// recordFootprint builds pr's class record the way a run does, extends
// it by up to rounds classes, and returns what the record charges and
// the live heap it frees when dropped, and how many of its pivots ran on
// the sparse kernel.
func recordFootprint(t *testing.T, pr *design.Problem, opts Options, rounds int) (charged, freed int64, sparsePivots int) {
	t.Helper()
	eng, err := engine.New(1)
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = eng
	o := NewOptimizer(pr, opts)
	mm, work, err := o.relaxation()
	if err != nil {
		t.Fatal(err)
	}
	r := &classRecord{key: work, hash: recordHash(work, o.Options), poolLimit: opts.PoolLimit, workers: opts.MILPWorkers, mm: mm.decoder()}
	mm, work = nil, nil
	for i := 0; i < rounds; i++ {
		c, _, _, err := r.class(o, i)
		if err != nil {
			t.Fatal(err)
		}
		sparsePivots += c.agg.SparsePivots
		if c.exhausted {
			break
		}
	}
	with := liveHeap()
	charged = r.bytes()
	r = nil
	return charged, with - liveHeap(), sparsePivots
}

// TestClassRecordBytesMatchHeap: a class record charges the engine's
// budget within 25% of the live heap it holds — nominal, Γ-robust and
// with its warm state on the sparse LP kernel, LU factors and eta file
// included.
func TestClassRecordBytesMatchHeap(t *testing.T) {
	deep := design.PaperProblem(0.97)
	deep.Duration = 2
	for _, c := range []struct {
		name   string
		pr     *design.Problem
		opts   Options
		rounds int
		sparse bool
	}{
		{"nominal", recordProblem(0.85), Options{}, 3, false},
		{"gamma", recordProblem(0.85), Options{Robust: RobustOptions{Enabled: true, ProposeGamma: 1, PDRMin: 0.5}}, 1, false},
		{"deep", deep, Options{}, 9, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			charged, freed, sparse := recordFootprint(t, c.pr, c.opts, c.rounds)
			t.Logf("charged %d bytes, freed %d (%.2f×), %d sparse pivots", charged, freed, float64(charged)/float64(freed), sparse)
			if (sparse > 0) != c.sparse {
				t.Fatalf("premise: %d sparse-kernel pivots, want sparse %v", sparse, c.sparse)
			}
			if lo, hi := 0.75*float64(freed), 1.25*float64(freed); float64(charged) < lo || float64(charged) > hi {
				t.Fatalf("charged %d bytes for a record holding %d", charged, freed)
			}
		})
	}
}
