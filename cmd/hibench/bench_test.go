package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hiopt/internal/microbench"
)

func TestWriteBenchFileKeepsForeignEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	serve := benchEntry{NsPerOp: 71e9, Metrics: map[string]float64{"designs_per_sec": 13.5, "clients": 1000}}
	if err := writeBenchFile(path, map[string]benchEntry{
		"des_steady_state": {NsPerOp: 1},
		"ServeLoad":        serve,
	}, nil, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := writeBenchFile(path, map[string]benchEntry{"des_steady_state": {NsPerOp: 2}}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got, err := readBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := got.Benchmarks["ServeLoad"]; !ok || e.NsPerOp != serve.NsPerOp || e.Metrics["designs_per_sec"] != 13.5 {
		t.Fatalf("ServeLoad not carried over intact: %+v (present %v)", e, ok)
	}
	if ns := got.Benchmarks["des_steady_state"].NsPerOp; ns != 2 {
		t.Fatalf("des_steady_state ns/op = %v, want the new measurement 2", ns)
	}
	if !strings.Contains(out.String(), "ServeLoad") {
		t.Fatalf("carried entry not named in the output: %q", out.String())
	}
}

func TestWriteBenchFileRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBenchFile(path, map[string]benchEntry{"x": {}}, nil, &strings.Builder{}); err == nil {
		t.Fatal("overwrote an unparseable file instead of reporting it")
	}
}

// TestRegistryMatchesBaseline pins the microbench registry to the
// checked-in baseline: a benchmark missing from either side would only
// show up as "new" or "gone" in hibench -cmp, which gates neither.
func TestRegistryMatchesBaseline(t *testing.T) {
	base, err := readBenchFile(filepath.Join("..", "..", "BENCH_simcore.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range microbench.All {
		if names[m.Name] {
			t.Errorf("registry name %q is not unique", m.Name)
		}
		names[m.Name] = true
		if _, ok := base.Benchmarks[m.Name]; !ok {
			t.Errorf("registry benchmark %q has no entry in BENCH_simcore.json", m.Name)
		}
	}
	for name := range base.Benchmarks {
		// ServeLoad is appended by hiserve-bench -json, not measured by
		// the registry.
		if name != "ServeLoad" && !names[name] {
			t.Errorf("BENCH_simcore.json entry %q is not in the registry", name)
		}
	}
}
