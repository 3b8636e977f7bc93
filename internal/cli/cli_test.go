package cli

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hiopt/internal/engine"
	"hiopt/internal/experiments"
	"hiopt/internal/netsim"
)

func newCommand(t *testing.T, args ...string) (*Command, *experiments.Fidelity) {
	t.Helper()
	c := New(flag.NewFlagSet("test", flag.ContinueOnError), "test")
	fid := c.Fidelity()
	c.Parse(args)
	return c, fid
}

// TestRegistration: one New + Fidelity registers every shared flag, and
// -paper resolves to 600 s × 3 runs at the given seed.
func TestRegistration(t *testing.T) {
	c, fid := newCommand(t, "-paper", "-seed", "7", "-shards", "4", "-cachefile", "c.bin",
		"-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof")
	for _, name := range []string{"duration", "runs", "seed", "paper", "shards", "cachefile", "cpuprofile", "memprofile"} {
		if c.fs.Lookup(name) == nil {
			t.Fatalf("flag -%s not registered", name)
		}
	}
	if want := (experiments.Fidelity{Duration: 600, Runs: 3, Seed: 7}); *fid != want {
		t.Fatalf("fidelity %+v, want %+v", *fid, want)
	}
	if c.Shards != 4 || c.CacheFile != "c.bin" || c.CPUProfile != "cpu.pprof" || c.MemProfile != "mem.pprof" {
		t.Fatalf("parsed %+v", c)
	}
	if _, fid := newCommand(t, "-duration", "5", "-runs", "2"); *fid != (experiments.Fidelity{Duration: 5, Runs: 2, Seed: 1}) {
		t.Fatalf("fidelity %+v, want 5 s × 2 runs at seed 1", *fid)
	}
}

// TestStrictShards: -shards takes 0 or a power of two; anything else
// fails Start with the engine's message instead of being rounded.
func TestStrictShards(t *testing.T) {
	for _, bad := range []string{"3", "10", "-1"} {
		c, fid := newCommand(t, "-shards", bad)
		if _, err := c.start(fid.Sig(), 1); err == nil {
			t.Fatalf("-shards %s accepted", bad)
		}
	}
	c, fid := newCommand(t, "-shards", "8")
	eng, err := c.start(fid.Sig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 8 {
		t.Fatalf("%d shards, want 8", eng.Shards())
	}
}

// TestCacheRoundTrip: a run attaches the cache file and spills its
// simulation at Close; a second run under the same fidelity loads it and
// answers the same request from disk without simulating.
func TestCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 0)
	cfg.Duration = 5
	run := func() engine.Stats {
		c, fid := newCommand(t, "-duration", "5", "-cachefile", path)
		eng, err := c.start(fid.Sig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		req := engine.Request{Cfg: cfg, Runs: fid.Runs, Seed: fid.Seed, Key: engine.PointKey(1)}
		if _, err := eng.Evaluate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if err := c.close(); err != nil {
			t.Fatal(err)
		}
		return eng.Stats()
	}
	if cold := run(); cold.Simulated != 1 || cold.DiskHits != 0 {
		t.Fatalf("cold run: %s", cold)
	}
	if warm := run(); warm.Simulated != 0 || warm.DiskHits != 1 {
		t.Fatalf("warm run: %s", warm)
	}
}

// TestCacheBudget: -cachemb exists only where a command registers it; it
// bounds the engine before the cache file loads, so entries past the
// budget are skipped, and the loaded ones are charged within it.
func TestCacheBudget(t *testing.T) {
	if c, _ := newCommand(t); c.fs.Lookup("cachemb") != nil {
		t.Fatal("-cachemb registered without CacheBudget")
	}
	path := filepath.Join(t.TempDir(), "cache.bin")
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 0)
	cfg.Duration = 1
	const entries = 64
	run := func(args ...string) *engine.Engine {
		c := New(flag.NewFlagSet("test", flag.ContinueOnError), "test")
		fid := c.Fidelity()
		c.CacheBudget(2)
		c.Parse(append([]string{"-duration", "1", "-cachefile", path}, args...))
		eng, err := c.start(fid.Sig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < entries; i++ {
			req := engine.Request{Cfg: cfg, Runs: 1, Seed: uint64(i + 1), Key: engine.ScenarioKey(1, uint64(i+1))}
			if _, err := eng.Evaluate(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.close(); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	if b, _ := run("-cachemb", "0").Budget(); b != 0 {
		t.Fatalf("-cachemb 0: budget %d, want unbounded", b)
	}
	eng := run("-cachemb", "0.01")
	budget, resident := eng.Budget()
	st := eng.Stats()
	if mb := 0.01; budget != int64(mb*(1<<20)) || resident > budget || st.LoadSkipped == 0 || st.DiskHits == 0 || st.DiskHits+st.LoadSkipped != entries {
		t.Fatalf("budget %d, resident %d, %s, %d skipped: want %d entries split into disk hits and skips within the budget",
			budget, resident, st, st.LoadSkipped, entries)
	}
}

// TestProfilesOff: without -cpuprofile and -memprofile, Start and Close
// write no profile.
func TestProfilesOff(t *testing.T) {
	dir := t.TempDir()
	c, fid := newCommand(t)
	if _, err := c.start(fid.Sig(), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("no profile flags, but %d files written", len(entries))
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a
// non-empty profile at Close, and an unwritable path fails Start with a
// "profiling:" error.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	c, fid := newCommand(t, "-cpuprofile", cpu, "-memprofile", mem)
	if _, err := c.start(fid.Sig(), 1); err != nil {
		t.Fatal(err)
	}
	x := 0 // burn a little CPU so the profile has samples to encode
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (%v)", p, err)
		}
	}

	c, fid = newCommand(t, "-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof"))
	if _, err := c.start(fid.Sig(), 1); err == nil || !strings.HasPrefix(err.Error(), "profiling:") {
		t.Fatalf("bad -cpuprofile path: %v, want a profiling: error", err)
	}
}
