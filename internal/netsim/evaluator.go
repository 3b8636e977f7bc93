package netsim

import (
	"context"

	"hiopt/internal/channel"
	"hiopt/internal/des"
)

// Evaluator amortizes simulation infrastructure across runs: it owns one
// DES kernel whose event pool and calendar are recycled through Reset, one
// channel model re-seeded in place for every run (its pair storage,
// hashed stream names and ρ table survive), a scratch Result reused for
// the inner repetitions of RunAveraged, and the PDR-sample /
// latency-merge buffers. Results returned to callers are always freshly
// allocated (safe to retain or cache); only the internal scratch is
// reused. Reuse is invisible in the output: the kernel's event ordering
// depends only on relative (time, sequence) order, which Reset preserves,
// and a re-seeded channel model draws exactly the streams a fresh one
// would, so an Evaluator produces bit-identical Results to one-shot
// construction for the same (Config, seed). A Network's Channel() is
// therefore only valid until its Evaluator's next run.
//
// An Evaluator is not safe for concurrent use; give each worker goroutine
// its own (see internal/core's evaluator pool). The engine makes all of
// its workers' Evaluators on one goroutine, back to back in one size
// class, so the fields sit between des.CacheLine pads: scratch, pdrs and
// lats are written on every replication, and without the pads one
// worker's lats header could share a cache line with the next worker's
// scratch (DESIGN.md §8).
type Evaluator struct {
	_       [des.CacheLine]byte
	sim     *des.Simulator
	ch      *channel.Model // re-seeded in place by every run; nil until the first
	scratch Result         // per-repetition metrics inside RunAveraged
	pdrs    []float64      // per-repetition PDR samples for the std-dev estimate
	lats    []float64      // latency merge buffer for collectInto
	_       [des.CacheLine]byte
}

// NewEvaluator returns an Evaluator with a fresh kernel. Its channel model
// is allocated by the first run, so an evaluator that never simulates —
// an engine answering from its cache — does not carry one.
func NewEvaluator() *Evaluator { return &Evaluator{sim: des.New()} }

// runInto executes one simulation into res, reusing the Evaluator's kernel
// and buffers.
func (ev *Evaluator) runInto(cfg Config, seed uint64, res *Result) error {
	ev.sim.Reset()
	if ev.ch == nil {
		ev.ch = &channel.Model{}
	}
	n, err := newWith(cfg, seed, ev.sim, ev.ch)
	if err != nil {
		return err
	}
	n.Start()
	ev.sim.Run(cfg.Duration)
	ev.lats = n.collectInto(res, ev.lats)
	return nil
}

// Run executes one simulation and returns a fresh Result.
func (ev *Evaluator) Run(cfg Config, seed uint64) (*Result, error) {
	res := &Result{}
	if err := ev.runInto(cfg, seed, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunAveraged runs the configuration `runs` times with derived seeds
// (seed, seed+1, ...) and averages PDR and power metrics on the reusable
// kernel; semantics match the package-level RunAveraged.
func (ev *Evaluator) RunAveraged(cfg Config, runs int, seed uint64) (*Result, error) {
	res, _, err := ev.Replicate(nil, cfg, runs, seed, nil)
	return res, err
}

// Replicate is the replication loop: it runs the configuration up to
// `runs` times with derived seeds (seed, seed+1, ...) and averages the
// replications that ran, returning that count. A nil gate spends the
// whole budget — exactly RunAveraged. With a gate, `runs` is a budget:
// after each replication (from the gate's MinRuns on) the accumulated PDR
// samples are tested against it, and the loop stops as soon as the
// confidence interval settles which side of the gate's band the
// configuration is on; a gate that never decides reproduces the ungated
// loop bit-for-bit. ctx (nil never cancels) is checked between
// replications: once it is done the loop abandons the remaining ones and
// returns its error. A replication is the atomic unit of work, so
// cancellation keeps every completed Result exact while bounding the
// abandoned work to one simulator run.
func (ev *Evaluator) Replicate(ctx context.Context, cfg Config, runs int, seed uint64, gate *Gate) (*Result, int, error) {
	if runs < 1 {
		runs = 1
	}
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	if err := ctxErr(); err != nil {
		return nil, 0, err
	}
	// The first repetition's (fresh) Result doubles as the accumulator and
	// the return value; later repetitions land in the reused scratch.
	acc, err := ev.Run(cfg, seed)
	if err != nil {
		return nil, 0, err
	}
	ev.pdrs = append(ev.pdrs[:0], acc.PDR)
	ran := 1
	for ; ran < runs && (gate == nil || !gate.Decided(ev.pdrs)); ran++ {
		if err := ctxErr(); err != nil {
			return nil, 0, err
		}
		if err := ev.runInto(cfg, seed+uint64(ran), &ev.scratch); err != nil {
			return nil, 0, err
		}
		ev.pdrs = append(ev.pdrs, ev.scratch.PDR)
		acc.Accumulate(&ev.scratch)
	}
	acc.Finalize(ran, cfg.BatteryJ, ev.pdrs)
	return acc, ran, nil
}
