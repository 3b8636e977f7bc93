// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload (chain, sweep, serve or front) through the module's public
// entry points for a fixed time, checks every output, and prints one JSON
// result line. With --trace 1 it instead replays each op layer by layer
// (milp, core, engine, netsim, serve) and prints the per-layer metrics.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// A run builds its set-up repeatedly for setupWindow (at least
// setupMinReps and at most setupMaxReps times) before the timed ops, and again after them; setup_s
// is the median of all builds. On a shared 2-vCPU host one set-up varied
// by about 9% from the next, and the host's speed drifted by 20–40% over
// a few seconds, so the builds sample two stretches of host time a run
// apart rather than one.
const (
	setupWindow  = 1500 * time.Millisecond
	setupMinReps = 5
	setupMaxReps = 100
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: chain, sweep, serve or front")
		seed     = flag.Uint64("seed", defaultSeed, "input seed")
		seconds  = flag.Float64("seconds", 25, "measured time per run")
		trace    = flag.Int("trace", 0, "1 = traced run with per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this JSON file")
		catalog  = flag.String("write-catalog", "", "regenerate the chain catalog into this file and exit")
	)
	flag.IntVar(&serveNewEvery, "serve-new-every", defaultServeNewEvery, "serve: every N-th request is a first-time tenant")
	flag.Parse()
	if *catalog != "" {
		if err := writeCatalogFile(*catalog); err != nil {
			fail(err)
		}
		return
	}
	setup, ok := setups[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || serveNewEvery < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload chain|sweep|serve|front --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// serve measures two concurrent clients on a 2-worker engine, so it
	// gets two threads; the other workloads run on one. On a shared 2-vCPU
	// host a CPU-bound run on two threads varied 10–25% from run to run on
	// identical inputs, and 2–3% on one.
	par := 1
	if *workload == "serve" {
		par = min(runtime.NumCPU(), 2)
	}
	runtime.GOMAXPROCS(par)

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*workload, *seed, *seconds, par, *traceOut)
	} else {
		res, err = runTimed(setup, *seed, *seconds, par)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// outDir is where traced runs write their spans and temporary files: the
// build directory run.sh uses, $CARGO_TARGET_DIR or .bench_build.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func writeCatalogFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeCatalog(f, os.Stderr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildSetup builds the set-up for setupWindow, setupMinReps to
// setupMaxReps times, and returns the last build and the time each took in seconds.
// With keep unset it closes every build.
func buildSetup(setup setupFunc, seed uint64, par int, keep bool) (runner, []float64, error) {
	var r runner
	var times []float64
	t0 := time.Now()
	for len(times) < setupMinReps || len(times) < setupMaxReps && time.Since(t0) < setupWindow {
		if r != nil {
			r.close()
		}
		t1 := time.Now()
		var err error
		if r, err = setup(seed, par); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t1).Seconds())
	}
	if !keep {
		r.close()
		r = nil
	}
	return r, times, nil
}

// runTimed is the untraced run behind the end-to-end metrics.
func runTimed(setup setupFunc, seed uint64, seconds float64, par int) (*result, error) {
	r, setupTimes, err := buildSetup(setup, seed, par, true)
	if err != nil {
		return nil, err
	}

	var t tally
	cpu0 := cpuTime()
	t0 := time.Now()
	rss := trackRSS(time.Duration(seconds * float64(time.Second) / rssEpochs))
	r.ops(t0.Add(time.Duration(seconds*float64(time.Second))), &t)
	wall := time.Since(t0).Seconds()
	cpu := cpuTime() - cpu0
	peakRSS := rss.finish()

	info := map[string]any{"ops": t.attempts, "wall_s": wall, "errors": t.errs, "rss_peaks_mb": rss.peaks}
	if p90, ok := percentile(t.lat, 0.9); ok {
		info["latency_p90_ms"] = p90
	}
	if s, ok := r.(*serveRunner); ok && t.attempts > 0 {
		info["warm_frac"] = float64(s.warm) / float64(t.attempts)
	}
	r.close()
	_, after, err := buildSetup(setup, seed, par, false)
	if err != nil {
		return nil, err
	}
	setupTimes = append(setupTimes, after...)
	info["setup_builds"] = len(setupTimes)
	printInfo(info)

	n := float64(max(t.attempts, 1))
	return &result{
		Correct:   t.attempts > 0 && t.failed == 0,
		Attempted: t.attempts,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setupTimes), "s"},
			"ops_per_s":      {float64(t.attempts) / wall, "1/s"},
			"latency_p50_ms": {median(t.lat), "ms"},
			"cpu_ms_per_op":  {float64(cpu.Nanoseconds()) / 1e6 / n, "ms"},
			"ok_frac":        {t.okFrac(), "frac"},
			"max_rss_mb":     {peakRSS, "MiB"},
		},
	}, nil
}

// printInfo writes a diagnostic line ahead of the result line, keys
// sorted.
func printInfo(info map[string]any) {
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("# info")
	for _, k := range keys {
		v, _ := json.Marshal(info[k])
		fmt.Printf(" %s=%s", k, v)
	}
	fmt.Println()
}
