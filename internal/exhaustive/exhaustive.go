// Package exhaustive is the brute-force baseline of the evaluation: it
// simulates every feasible configuration of the design space and selects
// the minimum-power one meeting the reliability bound. Algorithm 1's
// headline result (87% fewer simulations) is measured against this
// search, and the full sweep doubles as the data generator for the
// paper's Fig. 3 scatter.
package exhaustive

import (
	"fmt"
	"sort"

	"hiopt/internal/design"
	"hiopt/internal/engine"
)

// Entry is one evaluated configuration.
type Entry struct {
	Point design.Point
	// AnalyticMW is the Eq. (9) estimate.
	AnalyticMW float64
	// PDR, PowerMW, NLTDays are simulated metrics.
	PDR     float64
	PowerMW float64
	NLTDays float64
	// Feasible reports PDR >= PDRMin − feasTol.
	Feasible bool
}

// Result is the outcome of an exhaustive search.
type Result struct {
	// Best is the minimum-power feasible entry (nil if none).
	Best *Entry
	// All holds every evaluated configuration, sorted by simulated power.
	All []Entry
	// Evaluations counts configurations; Simulations counts simulator
	// runs (Evaluations × Runs).
	Evaluations int
	Simulations int
	// Stats snapshots the evaluation engine's counters over this sweep.
	// With a shared engine (Options.Engine warm from another layer) the
	// cache-hit counters expose cross-layer reuse.
	Stats engine.Stats
}

// Options tune the search.
type Options struct {
	// FeasTol relaxes the reliability check (see core.Options.FeasTol).
	FeasTol float64
	// Engine, when non-nil, is used instead of a private default engine
	// (GOMAXPROCS workers) — sharing one engine across layers shares its
	// result cache.
	Engine *engine.Engine
	// Progress, when non-nil, is called after every k completed
	// evaluations with (done, total).
	Progress func(done, total int)
}

// Search evaluates the entire feasible design space of the problem. The
// sweep runs through the evaluation engine's fixed worker pool — the
// hottest loop of the reproduction (the Fig. 3 scatter simulates the
// whole design space) — so results are deterministic regardless of
// worker count and repeated sweeps resolve from the cache.
func Search(pr *design.Problem, opts Options) (*Result, error) {
	if opts.FeasTol == 0 {
		opts.FeasTol = 0.001
	}
	eng := opts.Engine
	if eng == nil {
		eng, _ = engine.New(0) // New only fails on negative worker counts
	}
	start := eng.Stats()
	points := pr.Points()
	reqs := make([]engine.Request, len(points))
	for i, p := range points {
		reqs[i] = engine.Request{
			Cfg: pr.Config(p), Runs: pr.Runs, Seed: pr.Seed,
			Key: engine.PointKey(p.Key()), Label: fmt.Sprintf("%v", p),
		}
	}
	results, err := eng.EvaluateBatch(reqs, opts.Progress)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, len(points))
	for i, p := range points {
		res := results[i]
		entries[i] = Entry{
			Point:      p,
			AnalyticMW: pr.AnalyticPower(p),
			PDR:        res.PDR,
			PowerMW:    float64(res.MaxPower),
			NLTDays:    res.NLTDays,
			Feasible:   res.PDR >= pr.PDRMin-opts.FeasTol,
		}
	}

	sort.SliceStable(entries, func(a, b int) bool { return entries[a].PowerMW < entries[b].PowerMW })
	out := &Result{
		All:         entries,
		Evaluations: len(points),
		Simulations: len(points) * max(1, pr.Runs),
		Stats:       eng.Stats().Sub(start),
	}
	for i := range entries {
		if entries[i].Feasible {
			best := entries[i]
			out.Best = &best
			break
		}
	}
	return out, nil
}
