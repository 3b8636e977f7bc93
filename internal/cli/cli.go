// Package cli is the harness every command-line tool runs through: one
// flag group (the fidelity flags -duration/-runs/-seed/-paper, the engine
// flags -shards/-cachefile, a long-running command's -cachemb, and the
// profiling flags -cpuprofile/-memprofile), one evaluation-engine
// lifecycle and one "<cmd>: err" exit path.
//
// A command registers the shared flags next to its own, parses, takes
// its engine from Start and ends through Close:
//
//	c := cli.New(flag.CommandLine, "hisweep")
//	fid := c.Fidelity()
//	csv := flag.String("csv", "", "...")
//	c.Parse(os.Args[1:])
//	eng := c.Start(fid.Sig(), 0)
//	...
//	c.Close()
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hiopt/internal/engine"
	"hiopt/internal/experiments"
)

// Command is the harness of one command-line tool. The exported fields
// hold the shared flags once Parse has run; a command may clear
// CacheFile before Start when a run must not touch the cache file.
type Command struct {
	Shards     int
	CacheFile  string
	CPUProfile string
	MemProfile string

	name    string
	fs      *flag.FlagSet
	fid     *experiments.Fidelity
	paper   bool
	cacheMB *float64

	eng     *engine.Engine
	cpuFile *os.File
}

// New registers the engine and profiling flags on fs for the command
// called name (the prefix of its error messages).
func New(fs *flag.FlagSet, name string) *Command {
	c := &Command{name: name, fs: fs}
	fs.IntVar(&c.Shards, "shards", 0, "engine cache shard count, a power of two (0 = default)")
	fs.StringVar(&c.CacheFile, "cachefile", "", "persistent result cache: load completed simulations from this file and append fresh ones, so a repeated run at the same fidelity starts warm")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return c
}

// Fidelity registers -duration, -runs, -seed and -paper and returns the
// simulation fidelity they select, filled in by Parse. -paper is the
// paper's 600 s × 3 runs at the given seed.
func (c *Command) Fidelity() *experiments.Fidelity {
	c.fid = &experiments.Fidelity{}
	c.fs.Float64Var(&c.fid.Duration, "duration", 60, "simulation horizon in seconds")
	c.fs.IntVar(&c.fid.Runs, "runs", 1, "simulation runs averaged per evaluation")
	c.fs.Uint64Var(&c.fid.Seed, "seed", 1, "master random seed")
	c.fs.BoolVar(&c.paper, "paper", false, "paper fidelity (600 s × 3 runs)")
	return c.fid
}

// CacheBudget registers -cachemb, the engine's byte budget in MiB with
// default defMB (0 = unbounded). Only a command that runs without end
// needs it — a daemon minting first-time tenants; a batch run's cache is
// bounded by its finite work, and its engine never evicts.
func (c *Command) CacheBudget(defMB float64) {
	c.cacheMB = c.fs.Float64("cachemb", defMB, "engine cache budget in MiB for cached results and class-ledger records; past it the least recently used are evicted (0 = unbounded)")
}

// Parse parses args into the registered flags and resolves -paper.
func (c *Command) Parse(args []string) {
	c.Check(c.fs.Parse(args))
	if c.fid != nil && c.paper {
		c.fid.Duration, c.fid.Runs = experiments.Paper.Duration, experiments.Paper.Runs
	}
}

// Start begins the requested profiles and returns the command's engine:
// workers simulation workers (0 = GOMAXPROCS) over -shards cache shards,
// bounded by -cachemb when registered, with -cachefile attached under the
// context signature sig. Any failure exits through Check.
func (c *Command) Start(sig uint64, workers int) *engine.Engine {
	eng, err := c.start(sig, workers)
	c.Check(err)
	return eng
}

func (c *Command) start(sig uint64, workers int) (*engine.Engine, error) {
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		c.cpuFile = f
	}
	eng, err := engine.NewSharded(workers, c.Shards)
	if err != nil {
		return nil, err
	}
	if c.cacheMB != nil {
		// Before the cache file: loaded entries are charged too.
		if err := eng.SetBudget(int64(*c.cacheMB * (1 << 20))); err != nil {
			return nil, err
		}
	}
	if c.CacheFile != "" {
		n, err := eng.AttachCacheFile(c.CacheFile, sig)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			fmt.Printf("cache:        loaded %d entries from %s\n", n, c.CacheFile)
		}
		if skipped := eng.Stats().LoadSkipped; skipped > 0 {
			fmt.Printf("cache:        skipped %d entries past the %g MiB budget\n", skipped, *c.cacheMB)
		}
	}
	c.eng = eng
	return eng, nil
}

// Close flushes the cache file, prints the engine's counters as the
// "engine:" line and writes the profiles. Any failure exits through
// Check.
func (c *Command) Close() { c.Check(c.close()) }

func (c *Command) close() error {
	if c.eng != nil {
		if err := c.eng.CloseSpill(); err != nil {
			return err
		}
		fmt.Printf("engine:       %s\n", c.eng.Stats())
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := c.cpuFile.Close(); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		runtime.GC() // profile live objects, not transient garbage
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
	}
	return nil
}

// Check prints "<name>: err" to stderr and exits 1 when err is non-nil.
func (c *Command) Check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		os.Exit(1)
	}
}
