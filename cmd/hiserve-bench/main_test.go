package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestAppendResultNsPerOp: the ServeLoad entry's ns_per_op is the
// service time per design at the sustained rate (1e9 / designs_per_sec),
// not a request latency percentile, and every other entry survives the
// merge.
func TestAppendResultNsPerOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	seed := `{"generated_by": "hibench", "benchmarks": {"des_steady_state": {"ns_per_op": 25000}}}`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	const dps = 47.417563791553015
	if err := appendResult(path, 2000, 1000, dps, 1995, 20*time.Second, 22*time.Second); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		GeneratedBy string `json:"generated_by"`
		Benchmarks  map[string]struct {
			NsPerOp float64            `json:"ns_per_op"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	sl, ok := file.Benchmarks["ServeLoad"]
	if !ok {
		t.Fatal("no ServeLoad entry")
	}
	if want := 1e9 / dps; math.Abs(sl.NsPerOp-want) > 1e-6*want {
		t.Errorf("ns_per_op = %g, want 1e9/designs_per_sec = %g", sl.NsPerOp, want)
	}
	if sl.Metrics["designs_per_sec"] != dps || sl.Metrics["p50_ms"] != 20000 ||
		sl.Metrics["p99_ms"] != 22000 || sl.Metrics["clients"] != 1000 || sl.Metrics["requests"] != 2000 ||
		sl.Metrics["memo_hits"] != 1995 {
		t.Errorf("metrics = %v", sl.Metrics)
	}
	if file.GeneratedBy != "hibench" || file.Benchmarks["des_steady_state"].NsPerOp != 25000 {
		t.Errorf("existing fields not preserved: %s", raw)
	}
}
