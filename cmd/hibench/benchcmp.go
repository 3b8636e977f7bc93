package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// regressionThreshold is the relative increase over the old baseline
// that compareBench flags as a regression (10%), applied uniformly to
// ns_per_op, allocs_per_op, and bytes_per_op. Micro-benchmark noise on
// a quiet machine sits well under this for timings, and allocation
// counts are near-deterministic; anything above it is a real cost worth
// a look.
const regressionThreshold = 0.10

// Absolute noise floors for the count metrics: a steady-state-0-alloc
// benchmark still reports its one-time setup cost amortized over b.N,
// and b.N moves between runs, so tiny absolute B/op and allocs/op
// figures swing by large percentages without any code change. An
// increase must clear both the relative threshold and these floors to
// count as a regression.
const (
	allocsFloor = 64
	bytesFloor  = 4096
)

// readBenchFile loads one -benchjson output (e.g. BENCH_simcore.json).
func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &bf, nil
}

// relDelta returns new/old - 1, treating a zero or negative old value as
// no change (nothing meaningful to regress against).
func relDelta(oldV, newV float64) float64 {
	if oldV <= 0 {
		return 0
	}
	return newV/oldV - 1
}

// compareBench diffs two -benchjson files benchmark by benchmark and
// writes a delta table to w — ns/op gated at nsThreshold, allocs/op and
// B/op at the fixed regressionThreshold (allocation counts are
// near-deterministic; timings on a shared box are not, so the caller
// may widen the timing gate without loosening the allocation one). It
// returns the names of the benchmarks that regressed on any metric,
// annotated with the metric. Benchmarks present in only one file are
// reported but never counted as regressions (additions and removals are
// deliberate).
func compareBench(oldBF, newBF *benchFile, nsThreshold float64, w io.Writer) []string {
	names := make([]string, 0, len(newBF.Benchmarks))
	for name := range newBF.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressed, added []string
	fmt.Fprintf(w, "%-24s %12s %12s %8s %10s %8s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "allocs/op", "delta", "B/op", "delta")
	for _, name := range names {
		ne := newBF.Benchmarks[name]
		oe, ok := oldBF.Benchmarks[name]
		if !ok {
			added = append(added, name)
			fmt.Fprintf(w, "%-24s %12s %12.0f %8s %10d %8s %12d %8s\n",
				name, "—", ne.NsPerOp, "new", ne.AllocsPerOp, "", ne.BytesPerOp, "")
			continue
		}
		dNs := relDelta(oe.NsPerOp, ne.NsPerOp)
		dAllocs := relDelta(float64(oe.AllocsPerOp), float64(ne.AllocsPerOp))
		dBytes := relDelta(float64(oe.BytesPerOp), float64(ne.BytesPerOp))
		var marks []string
		if dNs > nsThreshold {
			marks = append(marks, "ns/op")
		}
		if dAllocs > regressionThreshold && ne.AllocsPerOp-oe.AllocsPerOp > allocsFloor {
			marks = append(marks, "allocs/op")
		}
		if dBytes > regressionThreshold && ne.BytesPerOp-oe.BytesPerOp > bytesFloor {
			marks = append(marks, "B/op")
		}
		mark := ""
		if len(marks) > 0 {
			mark = "  REGRESSION"
			regressed = append(regressed, fmt.Sprintf("%s(%s)", name, joinComma(marks)))
		}
		fmt.Fprintf(w, "%-24s %12.0f %12.0f %+7.1f%% %10d %+7.1f%% %12d %+7.1f%%%s\n",
			name, oe.NsPerOp, ne.NsPerOp, 100*dNs, ne.AllocsPerOp, 100*dAllocs, ne.BytesPerOp, 100*dBytes, mark)
	}
	var dropped []string
	for name := range oldBF.Benchmarks {
		if _, ok := newBF.Benchmarks[name]; !ok {
			dropped = append(dropped, name)
		}
	}
	sort.Strings(dropped)
	for _, name := range dropped {
		fmt.Fprintf(w, "%-24s %12.0f %12s %8s\n", name, oldBF.Benchmarks[name].NsPerOp, "—", "gone")
	}
	if len(added) > 0 {
		fmt.Fprintf(w, "note: %d benchmark(s) not in the old baseline, skipped (no regression gate): %v\n",
			len(added), added)
	}
	printMetricDeltas(names, oldBF, newBF, w)
	return regressed
}

// printMetricDeltas reports the custom ReportMetric figures (pivots/op,
// points/sec, speedup_vs_mutex1, ...) benchmark by benchmark. These are
// informational only — they carry the benchmarks' semantic claims (how
// many pivots a front solves, how much a gate saved) whose healthy
// direction varies per metric, so they never gate; the point is that a
// -cmp run surfaces their drift instead of silently ignoring them.
func printMetricDeltas(names []string, oldBF, newBF *benchFile, w io.Writer) {
	header := false
	for _, name := range names {
		ne := newBF.Benchmarks[name]
		if len(ne.Metrics) == 0 {
			continue
		}
		oe := oldBF.Benchmarks[name]
		keys := make([]string, 0, len(ne.Metrics))
		for k := range ne.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !header {
				fmt.Fprintf(w, "custom metrics (informational, never gated):\n")
				fmt.Fprintf(w, "%-24s %-22s %12s %12s %8s\n", "benchmark", "metric", "old", "new", "delta")
				header = true
			}
			nv := ne.Metrics[k]
			ov, ok := oe.Metrics[k]
			if !ok {
				fmt.Fprintf(w, "%-24s %-22s %12s %12.4g %8s\n", name, k, "—", nv, "new")
				continue
			}
			fmt.Fprintf(w, "%-24s %-22s %12.4g %12.4g %+7.1f%%\n", name, k, ov, nv, 100*relDelta(ov, nv))
		}
	}
}

func joinComma(s []string) string {
	out := ""
	for i, v := range s {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}

// mergeRuns folds several fresh -benchjson runs of the same code into
// the one file compareBench gates: per benchmark the minimum ns/op (the
// low-noise estimator, so one unlucky run cannot trip the timing gate)
// and the maximum allocs/op and B/op (repetition must not hide an
// allocation regression). Custom metrics come from the first run that
// has the benchmark.
func mergeRuns(runs []*benchFile) *benchFile {
	merged := &benchFile{Benchmarks: map[string]benchEntry{}}
	for _, bf := range runs {
		for name, e := range bf.Benchmarks {
			m, ok := merged.Benchmarks[name]
			if !ok {
				merged.Benchmarks[name] = e
				continue
			}
			m.NsPerOp = min(m.NsPerOp, e.NsPerOp)
			m.AllocsPerOp = max(m.AllocsPerOp, e.AllocsPerOp)
			m.BytesPerOp = max(m.BytesPerOp, e.BytesPerOp)
			merged.Benchmarks[name] = m
		}
	}
	return merged
}

// runBenchCmp is the -cmp entry point: diff the OLD benchmark JSON file
// against one or more NEW runs (merged by mergeRuns) and exit non-zero
// when any metric regressed beyond its threshold.
func runBenchCmp(oldPath string, newPaths []string, nsThreshold float64) {
	if nsThreshold <= 0 {
		nsThreshold = regressionThreshold
	}
	oldBF, err := readBenchFile(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hibench -cmp:", err)
		os.Exit(1)
	}
	var runs []*benchFile
	for _, path := range newPaths {
		bf, err := readBenchFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hibench -cmp:", err)
			os.Exit(1)
		}
		runs = append(runs, bf)
	}
	regressed := compareBench(oldBF, mergeRuns(runs), nsThreshold, os.Stdout)
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "hibench -cmp: %d benchmark(s) regressed beyond the thresholds (ns/op %.0f%%, allocs/op and B/op %.0f%%): %v\n",
			len(regressed), 100*nsThreshold, 100*regressionThreshold, regressed)
		os.Exit(1)
	}
	fmt.Printf("no ns/op regressions beyond %.0f%%, no allocs/op or B/op regressions beyond %.0f%%\n",
		100*nsThreshold, 100*regressionThreshold)
}
