package main

import (
	"strings"
	"testing"
)

func bf(entries map[string]benchEntry) *benchFile {
	return &benchFile{Benchmarks: entries}
}

func TestCompareBenchNewBenchmarkSkipped(t *testing.T) {
	oldBF := bf(map[string]benchEntry{
		"Old": {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
	})
	newBF := bf(map[string]benchEntry{
		"Old":   {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
		"Added": {NsPerOp: 1e9, AllocsPerOp: 1 << 20, BytesPerOp: 1 << 30},
	})
	var out strings.Builder
	regressed := compareBench(oldBF, newBF, regressionThreshold, &out)
	if len(regressed) != 0 {
		t.Fatalf("a benchmark with no baseline counted as a regression: %v", regressed)
	}
	if !strings.Contains(out.String(), "new") {
		t.Fatalf("missing-in-OLD row not marked new:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "not in the old baseline, skipped") ||
		!strings.Contains(out.String(), "Added") {
		t.Fatalf("no skip notice naming the new benchmark:\n%s", out.String())
	}
}

func TestCompareBenchGoneBenchmarkSkipped(t *testing.T) {
	oldBF := bf(map[string]benchEntry{
		"Kept":    {NsPerOp: 100},
		"Removed": {NsPerOp: 100},
	})
	newBF := bf(map[string]benchEntry{
		"Kept": {NsPerOp: 100},
	})
	var out strings.Builder
	regressed := compareBench(oldBF, newBF, regressionThreshold, &out)
	if len(regressed) != 0 {
		t.Fatalf("a removed benchmark counted as a regression: %v", regressed)
	}
	if !strings.Contains(out.String(), "gone") {
		t.Fatalf("missing-in-NEW row not marked gone:\n%s", out.String())
	}
}

func TestCompareBenchRegressionFlagged(t *testing.T) {
	oldBF := bf(map[string]benchEntry{
		"Hot": {NsPerOp: 100, AllocsPerOp: 1000, BytesPerOp: 100000},
	})
	newBF := bf(map[string]benchEntry{
		"Hot": {NsPerOp: 150, AllocsPerOp: 1000, BytesPerOp: 100000},
	})
	var out strings.Builder
	regressed := compareBench(oldBF, newBF, regressionThreshold, &out)
	if len(regressed) != 1 || !strings.Contains(regressed[0], "Hot") || !strings.Contains(regressed[0], "ns/op") {
		t.Fatalf("50%% ns/op regression not flagged: %v", regressed)
	}
	// The same delta clears a widened threshold.
	regressed = compareBench(oldBF, newBF, 0.60, &out)
	if len(regressed) != 0 {
		t.Fatalf("regression flagged beyond the widened threshold: %v", regressed)
	}
}

func TestCompareBenchAllocFloors(t *testing.T) {
	// A large relative allocs/B jump below the absolute floors is noise,
	// not a regression.
	oldBF := bf(map[string]benchEntry{
		"Tiny": {NsPerOp: 100, AllocsPerOp: 2, BytesPerOp: 128},
	})
	newBF := bf(map[string]benchEntry{
		"Tiny": {NsPerOp: 100, AllocsPerOp: 20, BytesPerOp: 1280},
	})
	var out strings.Builder
	if regressed := compareBench(oldBF, newBF, regressionThreshold, &out); len(regressed) != 0 {
		t.Fatalf("sub-floor allocation jump flagged: %v", regressed)
	}
	// Above the floors it is real.
	oldBF = bf(map[string]benchEntry{
		"Big": {NsPerOp: 100, AllocsPerOp: 1000, BytesPerOp: 100000},
	})
	newBF = bf(map[string]benchEntry{
		"Big": {NsPerOp: 100, AllocsPerOp: 2000, BytesPerOp: 100000},
	})
	if regressed := compareBench(oldBF, newBF, regressionThreshold, &out); len(regressed) != 1 {
		t.Fatalf("above-floor allocation regression not flagged: %v", regressed)
	}
}

func TestCompareBenchMetricDeltasInformational(t *testing.T) {
	oldBF := bf(map[string]benchEntry{
		"Front": {NsPerOp: 100, Metrics: map[string]float64{"pivots/op": 1000, "points/sec": 50}},
	})
	newBF := bf(map[string]benchEntry{
		"Front": {NsPerOp: 100, Metrics: map[string]float64{
			"pivots/op": 5000, "points/sec": 50, "fresh_sim_frac": 0.25}},
	})
	var out strings.Builder
	regressed := compareBench(oldBF, newBF, regressionThreshold, &out)
	if len(regressed) != 0 {
		t.Fatalf("a custom-metric delta counted as a regression: %v", regressed)
	}
	s := out.String()
	if !strings.Contains(s, "custom metrics") {
		t.Fatalf("no custom-metrics section:\n%s", s)
	}
	if !strings.Contains(s, "pivots/op") || !strings.Contains(s, "+400.0%") {
		t.Fatalf("pivots/op delta not reported:\n%s", s)
	}
	if !strings.Contains(s, "fresh_sim_frac") {
		t.Fatalf("metric missing from the old baseline not reported as new:\n%s", s)
	}
}

func TestCompareBenchNoMetricsNoSection(t *testing.T) {
	oldBF := bf(map[string]benchEntry{"Plain": {NsPerOp: 100}})
	newBF := bf(map[string]benchEntry{"Plain": {NsPerOp: 100}})
	var out strings.Builder
	compareBench(oldBF, newBF, regressionThreshold, &out)
	if strings.Contains(out.String(), "custom metrics") {
		t.Fatalf("custom-metrics section printed with no metrics present:\n%s", out.String())
	}
}

// TestMergeRunsMinTimeMaxAllocs: several fresh runs are gated on their
// fastest ns/op, so one noisy run cannot fail the timing gate, but on
// their largest allocs/op and B/op, so repetition hides no allocation
// regression.
func TestMergeRunsMinTimeMaxAllocs(t *testing.T) {
	oldBF := bf(map[string]benchEntry{
		"Noisy": {NsPerOp: 100, AllocsPerOp: 1000, BytesPerOp: 100000},
		"Leaky": {NsPerOp: 100, AllocsPerOp: 1000, BytesPerOp: 100000},
	})
	runA := bf(map[string]benchEntry{
		"Noisy": {NsPerOp: 190, AllocsPerOp: 1000, BytesPerOp: 100000},
		"Leaky": {NsPerOp: 100, AllocsPerOp: 1000, BytesPerOp: 100000},
		"OnlyA": {NsPerOp: 7},
	})
	runB := bf(map[string]benchEntry{
		"Noisy": {NsPerOp: 105, AllocsPerOp: 1000, BytesPerOp: 100000},
		"Leaky": {NsPerOp: 90, AllocsPerOp: 2000, BytesPerOp: 300000},
	})
	merged := mergeRuns([]*benchFile{runA, runB})
	if e := merged.Benchmarks["Noisy"]; e.NsPerOp != 105 {
		t.Fatalf("Noisy ns/op %g, want the minimum 105", e.NsPerOp)
	}
	if e := merged.Benchmarks["Leaky"]; e.NsPerOp != 90 || e.AllocsPerOp != 2000 || e.BytesPerOp != 300000 {
		t.Fatalf("Leaky merged to %+v, want ns 90, allocs 2000, B 300000", e)
	}
	if e := merged.Benchmarks["OnlyA"]; e.NsPerOp != 7 {
		t.Fatalf("a benchmark in one run only was not carried: %+v", e)
	}
	var out strings.Builder
	regressed := compareBench(oldBF, merged, 0.5, &out)
	if len(regressed) != 1 || regressed[0] != "Leaky(allocs/op,B/op)" {
		t.Fatalf("regressed %v, want only Leaky(allocs/op,B/op):\n%s", regressed, out.String())
	}
}
