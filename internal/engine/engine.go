// Package engine is the unified evaluation service behind every search
// layer of the reproduction. Algorithm 1 (internal/core), the exhaustive
// baseline, the simulated annealer, and the experiment suite all used to
// carry private copies of the "evaluate a batch of design points"
// machinery — semaphore worker spawns, sync.Pool evaluator recycling, and
// three separately-keyed result caches. An Engine replaces all of them
// with one service owning:
//
//   - a fixed-size worker pool scheduling at replication granularity: a
//     batch expands every fresh request into one sub-task per replication
//     (seed, seed+1, ...), spawns at most Workers goroutines (never one
//     per item), and each worker pulls sub-task indices from a shared
//     counter — so a single replication-heavy request can occupy the
//     whole pool, and parallelism is capped by total replications, not by
//     the number of points;
//   - a lock-striped cache keyed by (point key, fidelity, scenario key):
//     the key hash selects one of N shards, each owning its completed-map,
//     its persisted-tier map, and its in-flight (singleflight) table
//     behind a private mutex — concurrent cache-heavy batches contend on
//     N locks instead of one. Concurrent requests for the same key still
//     simulate once, and the waiters share the leader's result;
//   - a persistent tier underneath the shards: SaveCache/LoadCache
//     snapshot completed results to a compact binary file (versioned
//     header, per-entry checksum — see snapshot.go), and SpillTo streams
//     fresh results to an append-mode file from a background goroutine so
//     workers never block on disk. Requests answered from loaded entries
//     count as disk hits;
//   - a checked-out netsim.Evaluator per worker: exactly Workers reusable
//     DES kernels exist, handed out through a channel for the duration of
//     a batch (or a single Evaluate call) and replaced with a fresh one
//     if an evaluation panics mid-run;
//   - an opt-in confidence-gated adaptive mode (Request.Adaptive): the
//     request's Runs become a budget, replications run sequentially and
//     stop once the PDR confidence interval settles against the gate's
//     band, and the saved replications are counted in Stats;
//   - one fault-family call (EvaluateFamilies, family.go) that evaluates
//     caller-built scenario requests as one flat batch, or — under a
//     gate — wave by wave, sealing a family once its breaches exceed
//     its tolerance, and reduces each family to its worst-case envelope;
//   - a Stats counter block (submitted, simulated, cache hits, dedup
//     hits, disk hits, per-fidelity simulated seconds, adaptive savings)
//     so every layer can report the cost and cache behaviour of its
//     search.
//
// Determinism: a simulation's outcome depends only on (Config, Runs,
// Seed) — netsim.Evaluator is bit-identical to one-shot construction —
// and per-replication partial Results are merged in replication order
// with netsim's Accumulate/Finalize API, which performs the same
// floating-point operations in the same order as the sequential
// RunAveraged. Batch results are therefore bit-identical across worker
// counts, across shard counts (sharding only changes which mutex guards a
// key, never what is computed), and across cold-vs-warm runs (snapshot
// entries store the exact float bits of the in-memory Result). Errors are
// likewise scheduling-independent: a failure skips only the sub-tasks
// behind the lowest-indexed failed one, and the batch reports that
// lowest failure alone. No sub-task in front of it is ever skipped, so it
// always runs and fails, whatever the goroutine timing.
//
// Sharing one Engine between layers shares its cache: an exhaustive sweep
// can warm-fill the optimizer's full-fidelity entries, because both
// describe the same simulation by the same key.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hiopt/internal/netsim"
)

// Fidelity distinguishes the cache namespaces of full-fidelity
// evaluations and the optimizer's cheap two-stage screening runs: the two
// simulate different configurations (Duration vs Duration/5) of the same
// design point, so they must never answer for each other.
type Fidelity uint8

const (
	// Full is the standard T_sim × Runs evaluation.
	Full Fidelity = iota
	// Screen is the short screening pass (core's TwoStage option).
	Screen
)

func (f Fidelity) String() string {
	switch f {
	case Full:
		return "full"
	case Screen:
		return "screen"
	default:
		return fmt.Sprintf("Fidelity(%d)", int(f))
	}
}

// Key identifies a simulation in the unified cache: the design point's
// packed key, the fidelity namespace, and the fault-scenario key (0 for
// the nominal, fault-free run). The zero Key is reserved as "uncached":
// requests carrying it always simulate fresh (used for one-off
// configurations, e.g. ablation studies that vary parameters the point
// key does not capture). Point keys are nonzero for every valid design
// point — a point uses at least one location — so no real identity
// collides with the reserved zero.
type Key struct {
	Point    uint32
	Fidelity Fidelity
	Scenario uint64
}

// PointKey is the cache identity of a point's nominal full-fidelity
// evaluation.
func PointKey(point uint32) Key { return Key{Point: point, Fidelity: Full} }

// ScreenKey is the cache identity of a point's short screening run.
func ScreenKey(point uint32) Key { return Key{Point: point, Fidelity: Screen} }

// ScenarioKey is the cache identity of a point's full-fidelity evaluation
// under a fault scenario (scenario keys are nonzero by construction; see
// internal/fault).
func ScenarioKey(point uint32, scenario uint64) Key {
	return Key{Point: point, Fidelity: Full, Scenario: scenario}
}

// Cacheable reports whether the key participates in the cache (any
// non-zero key does).
func (k Key) Cacheable() bool { return k != Key{} }

// hash spreads the key over the shard array with a SplitMix64-style
// finalizer. Point keys are dense small integers and scenario keys are
// already well-mixed SplitMix64 outputs; folding both through the
// finalizer keeps neighbouring point keys from landing on neighbouring
// shards (which would serialize a sweep's natural submission order).
func (k Key) hash() uint64 {
	x := uint64(k.Point)<<8 | uint64(k.Fidelity)
	x ^= k.Scenario
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Request describes one simulation to run.
type Request struct {
	// Cfg, Runs, and Seed define the simulation exactly as
	// netsim.Evaluator.RunAveraged does (Runs < 1 counts as 1).
	Cfg  netsim.Config
	Runs int
	Seed uint64
	// Key is the request's cache identity; the zero Key bypasses the
	// cache entirely. The caller owns the key contract: two requests with
	// the same key must describe the same simulation.
	Key Key
	// Label names the request in error messages (usually the design
	// point, optionally suffixed with the scenario).
	Label string
	// Pre, when non-nil, runs on the worker immediately before a fresh
	// simulation (cache and dedup hits skip it; it runs exactly once per
	// request, before the first replication). A panic in Pre or in the
	// simulation itself is recovered into an error naming Label.
	Pre func()
	// Adaptive, when non-nil, turns Runs into a replication budget: the
	// replications run sequentially in netsim's replication loop
	// (Evaluator.Replicate) and stop as soon as the gate's confidence
	// interval settles which side of its reliability band the PDR is on.
	// The saved replications are counted in Stats.RepsSaved/SavedSeconds.
	// A gated request is one scheduling unit — its replication count is
	// decided at run time — while an ungated one fans out one sub-task per
	// replication. EvaluateFamilies sets it on every scenario request from
	// the family call's own gate.
	Adaptive *netsim.Gate
}

func (r *Request) label() string {
	if r.Label != "" {
		return r.Label
	}
	return r.Cfg.Label()
}

// Stats counts an Engine's evaluation traffic. All counters are
// cumulative over the engine's lifetime; use Sub to scope them to one
// search.
type Stats struct {
	// Submitted counts requests received; Simulated counts the ones that
	// ran a fresh simulation (the rest were answered by the cache, by the
	// persisted tier, or by a concurrent in-flight leader).
	Submitted int64
	Simulated int64
	// SimRuns counts individual simulator runs (a fresh request
	// contributes the replications it actually ran: max(1, Runs), or
	// fewer when an adaptive gate stopped early).
	SimRuns int64
	// CacheHits counts requests answered by a completed in-memory cache
	// entry; DedupHits counts requests that waited on a concurrent
	// in-flight evaluation of the same key (singleflight); DiskHits
	// counts requests answered by an entry loaded from a cache file
	// (each loaded entry is counted once — after the first disk hit it
	// is an ordinary in-memory entry and later hits are CacheHits).
	CacheHits int64
	DedupHits int64
	DiskHits  int64
	// FullSeconds and ScreenSeconds total the fresh simulated time per
	// fidelity (Cfg.Duration × replications actually run).
	FullSeconds   float64
	ScreenSeconds float64
	// RepsSaved counts replications skipped by adaptive early stopping
	// (a gated request contributes its budget minus the replications it
	// ran); SavedSeconds totals the simulated time those replications
	// would have cost.
	RepsSaved    int64
	SavedSeconds float64
}

// SimSeconds is the total fresh simulated time across both fidelities.
func (s Stats) SimSeconds() float64 { return s.FullSeconds + s.ScreenSeconds }

// FreshFrac is the fraction of submitted requests that were answered by a
// fresh simulation rather than the cache, dedup, or disk tiers — the
// figure of merit for workloads (ε-constraint sweeps, warm restarts) whose
// adjacent steps are supposed to share evaluations. Zero submissions
// yield 0.
func (s Stats) FreshFrac() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Simulated) / float64(s.Submitted)
}

// Sub returns the counter deltas since an earlier snapshot.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Submitted:     s.Submitted - prev.Submitted,
		Simulated:     s.Simulated - prev.Simulated,
		SimRuns:       s.SimRuns - prev.SimRuns,
		CacheHits:     s.CacheHits - prev.CacheHits,
		DedupHits:     s.DedupHits - prev.DedupHits,
		DiskHits:      s.DiskHits - prev.DiskHits,
		FullSeconds:   s.FullSeconds - prev.FullSeconds,
		ScreenSeconds: s.ScreenSeconds - prev.ScreenSeconds,
		RepsSaved:     s.RepsSaved - prev.RepsSaved,
		SavedSeconds:  s.SavedSeconds - prev.SavedSeconds,
	}
}

func (s Stats) String() string {
	msg := fmt.Sprintf("%d submitted, %d simulated (%d runs, %.6g s simulated), %d cache hits, %d dedup hits",
		s.Submitted, s.Simulated, s.SimRuns, s.SimSeconds(), s.CacheHits, s.DedupHits)
	if s.DiskHits > 0 {
		msg += fmt.Sprintf(", %d disk hits", s.DiskHits)
	}
	if s.RepsSaved > 0 {
		msg += fmt.Sprintf(", %d reps saved (%.6g s)", s.RepsSaved, s.SavedSeconds)
	}
	return msg
}

// engineStats is the engine's internal counter block. The hot counters
// (hits, submissions) are atomics so the cache-hit fast path never takes
// a lock; the float accumulators are only touched when a fresh simulation
// completes, where a mutex is noise against the simulation itself.
type engineStats struct {
	submitted atomic.Int64
	simulated atomic.Int64
	simRuns   atomic.Int64
	cacheHits atomic.Int64
	dedupHits atomic.Int64
	diskHits  atomic.Int64

	mu            sync.Mutex
	fullSeconds   float64
	screenSeconds float64
	repsSaved     int64
	savedSeconds  float64
}

func (s *engineStats) snapshot() Stats {
	s.mu.Lock()
	out := Stats{
		FullSeconds:   s.fullSeconds,
		ScreenSeconds: s.screenSeconds,
		RepsSaved:     s.repsSaved,
		SavedSeconds:  s.savedSeconds,
	}
	s.mu.Unlock()
	out.Submitted = s.submitted.Load()
	out.Simulated = s.simulated.Load()
	out.SimRuns = s.simRuns.Load()
	out.CacheHits = s.cacheHits.Load()
	out.DedupHits = s.dedupHits.Load()
	out.DiskHits = s.diskHits.Load()
	return out
}

// entry is one in-flight cache slot. done is closed when the leader
// finishes; res and err are valid only after that. Failed entries are
// removed from the in-flight table before done closes, and successful
// ones move to the shard's completed map.
type entry struct {
	done chan struct{}
	res  *netsim.Result
	err  error
}

// errAborted marks in-flight cache entries whose leading batch failed
// before they ran: the evaluation was skipped, not attempted. Waiters in
// the failing batch fold it into the root cause; waiters from other
// batches surface it (their key became retryable the moment the entry
// was unregistered).
var errAborted = errors.New("evaluation aborted: batch failed")

// shard is one lock stripe of the cache. Completed results live in done
// as bare *netsim.Result (no entry boxing — the cache-hit fast path
// returns them without allocating); disk holds results loaded from a
// cache file that have not been requested yet (promotion to done on
// first use is what makes DiskHits count each loaded entry exactly
// once); inflight is the singleflight table. The padding keeps adjacent
// shards on separate cache lines so striping actually removes
// contention instead of moving it to false sharing.
type shard struct {
	mu       sync.Mutex
	done     map[Key]*netsim.Result
	disk     map[Key]*netsim.Result
	inflight map[Key]*entry
	_        [32]byte
}

// DefaultShards is the shard count selected by New and by
// NewSharded(…, 0). 16 stripes keep the expected load per lock low even
// at high worker counts while costing only a few hundred bytes of empty
// maps on small runs.
const DefaultShards = 16

// Engine is the shared evaluation service. It is safe for concurrent use;
// nested use from inside a Request.Pre hook or an EvaluateBatch progress
// callback would deadlock on the evaluator pool and is not supported.
type Engine struct {
	workers int
	// evals holds the engine's reusable DES kernels: exactly `workers`
	// evaluators exist, either parked here or checked out by a worker.
	evals chan *netsim.Evaluator

	// shards is the lock-striped cache; len(shards) is a power of two
	// and mask = len(shards)-1 turns a key hash into a shard index.
	shards []shard
	mask   uint64

	stats engineStats

	// running counts sub-tasks simulating right now; peakRunning is its
	// high-water mark, the worker occupancy tests read.
	running     atomic.Int64
	peakRunning atomic.Int64

	// spill, when non-nil, receives every freshly simulated cacheable
	// result for background append to a cache file (see spill.go).
	spill atomic.Pointer[spillWriter]
}

// New builds an engine with the given worker count and the default shard
// count: 0 workers selects GOMAXPROCS, negative counts are rejected.
func New(workers int) (*Engine, error) {
	return NewSharded(workers, 0)
}

// NewSharded builds an engine with an explicit cache shard count: 0
// selects DefaultShards, other values must be powers of two (1
// reproduces the old single-mutex behaviour, useful as a contention
// baseline), so a typo like -shards 10 fails loudly instead of silently
// running with 16. Shard count never affects results — only which mutex
// guards a key.
func NewSharded(workers, shards int) (*Engine, error) {
	if workers < 0 {
		return nil, fmt.Errorf("engine: Workers must be >= 0 (0 selects GOMAXPROCS), got %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shards < 0 {
		return nil, fmt.Errorf("engine: Shards must be >= 0 (0 selects the default %d), got %d", DefaultShards, shards)
	}
	if shards&(shards-1) != 0 {
		return nil, fmt.Errorf("engine: shard count %d is not a power of two (use 1, 2, 4, ... or 0 for the default %d)", shards, DefaultShards)
	}
	if shards == 0 {
		shards = DefaultShards
	}
	e := &Engine{
		workers: workers,
		evals:   make(chan *netsim.Evaluator, workers),
		shards:  make([]shard, shards),
		mask:    uint64(shards - 1),
	}
	for i := range e.shards {
		e.shards[i].done = make(map[Key]*netsim.Result)
		e.shards[i].disk = make(map[Key]*netsim.Result)
		e.shards[i].inflight = make(map[Key]*entry)
	}
	for i := 0; i < workers; i++ {
		e.evals <- netsim.NewEvaluator()
	}
	return e, nil
}

// Workers reports the fixed worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Shards reports the cache shard count.
func (e *Engine) Shards() int { return len(e.shards) }

func (e *Engine) shard(k Key) *shard { return &e.shards[k.hash()&e.mask] }

// Stats returns a snapshot of the engine's cumulative counters.
func (e *Engine) Stats() Stats { return e.stats.snapshot() }

// Cached reports whether a completed result for k is available without
// simulating — in the in-memory cache or in the loaded persisted tier.
func (e *Engine) Cached(k Key) bool {
	if !k.Cacheable() {
		return false
	}
	sh := e.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.done[k]; ok {
		return true
	}
	_, ok := sh.disk[k]
	return ok
}

// lookupDone returns the completed in-memory entry for k, or nil. It
// never touches the persisted tier, so a nil return does not mean the
// key must simulate — the batch resolution pass handles disk promotion.
func (e *Engine) lookupDone(k Key) *netsim.Result {
	sh := e.shard(k)
	sh.mu.Lock()
	r := sh.done[k]
	sh.mu.Unlock()
	return r
}

// Evaluate runs (or recalls) a single request under a cancellation
// context (nil behaves like an uncancellable context). A completed cache
// entry is returned directly — zero allocations on the hot path — and
// anything else becomes a one-request batch, so a replication-heavy or
// adaptive request still uses the scheduler. A cache hit is answered even
// after cancellation — it costs nothing — but fresh work is abandoned at
// replication granularity once ctx is done.
func (e *Engine) Evaluate(ctx context.Context, req Request) (*netsim.Result, error) {
	if req.Key.Cacheable() {
		if r := e.lookupDone(req.Key); r != nil {
			e.stats.submitted.Add(1)
			e.stats.cacheHits.Add(1)
			return r, nil
		}
	}
	var one [1]*netsim.Result
	if err := e.EvaluateBatchInto(ctx, one[:], []Request{req}, nil); err != nil {
		return nil, err
	}
	return one[0], nil
}

// job tracks one batch request that must simulate fresh: its in-flight
// cache entry (when cacheable), the per-replication partial Results, and
// the completion state shared by its sub-tasks.
type job struct {
	req  *Request
	idx  int // index into the batch's request slice
	runs int // replication budget, max(1, req.Runs)
	en   *entry
	// loop marks a gated request: its one sub-task runs the whole
	// replication loop instead of a single replication.
	loop bool

	pre     sync.Once
	reps    []*netsim.Result // partials, indexed by replication
	pending int              // sub-tasks not yet completed
	ran     int              // replications actually simulated
	err     error            // lowest-replication error
	errRep  int
	aborted bool // a sub-task was skipped after the batch failed
}

// task is one schedulable unit of a batch: one replication of a job
// (j != nil), or a wait on another batch's in-flight evaluation of the
// same key (wait != nil; req is kept so an aborted foreign leader can be
// replaced by this waiter — see batch.waitTask).
type task struct {
	j    *job
	rep  int
	idx  int
	wait *entry
	req  *Request
}

// batch is the shared state of one EvaluateBatch call.
type batch struct {
	e       *Engine
	ctx     context.Context // nil = uncancellable
	results []*netsim.Result
	onDone  func(done, total int)
	total   int
	tasks   []task

	// failAt is the lowest index of a failed sub-task (math.MaxInt64
	// while none has failed). Only sub-tasks behind it are skipped, so
	// the failure at failAt is a function of the batch, not of timing.
	failAt     atomic.Int64
	ctxErrOnce sync.Once  // records ctx's error into ctxErr exactly once
	mu         sync.Mutex // guards results/done reporting, the errors, and job state
	failErr    error      // the error of sub-task failAt
	ctxErr     error
	done       int
}

// cancelled reports (and, on the first observation, records) the batch
// context's cancellation. Every worker polls it between sub-tasks, so a
// disconnected caller's in-flight work stops within one replication
// instead of running the batch to completion.
func (b *batch) cancelled() bool {
	if b.ctx == nil {
		return false
	}
	err := b.ctx.Err()
	if err == nil {
		return false
	}
	b.ctxErrOnce.Do(func() {
		b.mu.Lock()
		b.ctxErr = err
		b.mu.Unlock()
	})
	return true
}

// skip reports whether sub-task t must not run: the batch context is
// done, or a sub-task in front of t has failed.
func (b *batch) skip(t int) bool {
	return b.cancelled() || int64(t) > b.failAt.Load()
}

// fail records err as the failure of sub-task t, keeping the one with
// the lowest index.
func (b *batch) fail(t int, err error) {
	b.mu.Lock()
	if int64(t) < b.failAt.Load() {
		b.failAt.Store(int64(t))
		b.failErr = err
	}
	b.mu.Unlock()
}

// isCtxErr reports whether err is (or wraps) the batch context's
// cancellation error.
func (b *batch) isCtxErr(err error) bool {
	return b.ctx != nil && b.ctx.Err() != nil && errors.Is(err, b.ctx.Err())
}

// EvaluateBatch evaluates every request on the fixed worker pool and
// returns the results in submission order. See EvaluateBatchInto for the
// scheduling and determinism contract.
func (e *Engine) EvaluateBatch(reqs []Request, onDone func(done, total int)) ([]*netsim.Result, error) {
	return e.EvaluateBatchCtx(nil, reqs, onDone)
}

// EvaluateBatchCtx is EvaluateBatch under a cancellation context. Once
// ctx is done the batch stops claiming fresh sub-tasks (in-flight
// replications finish; nothing new starts), unregisters its in-flight
// cache entries so other batches can retry the keys, and returns an
// error wrapping ctx.Err(). Results computed before the cancellation
// still enter the cache — cancellation never corrupts or forks the
// cache, it only bounds this caller's work.
func (e *Engine) EvaluateBatchCtx(ctx context.Context, reqs []Request, onDone func(done, total int)) ([]*netsim.Result, error) {
	results := make([]*netsim.Result, len(reqs))
	if err := e.EvaluateBatchInto(ctx, results, reqs, onDone); err != nil {
		return nil, err
	}
	return results, nil
}

// EvaluateBatchInto is EvaluateBatchCtx writing into a caller-owned
// results slice (len(results) must equal len(reqs)) — a cache-hot batch
// completes without allocating. A nil ctx behaves like an uncancellable
// context; EvaluateBatchCtx documents the cancellation contract. Fresh
// requests are expanded into per-replication sub-tasks, so parallelism is
// bounded by the total replication count, not the request count; the
// partials are merged in replication order, keeping results bit-identical
// to sequential evaluation for any Workers value. onDone, when non-nil,
// is called under a lock after each completed request with the
// completed and total counts. A failed
// sub-task skips the sub-tasks behind it (in request, then replication
// order) and the batch returns the lowest-indexed failure alone, so the
// reported error does not depend on goroutine scheduling.
func (e *Engine) EvaluateBatchInto(ctx context.Context, results []*netsim.Result, reqs []Request, onDone func(done, total int)) error {
	if len(results) != len(reqs) {
		return fmt.Errorf("engine: results slice length %d does not match %d requests", len(results), len(reqs))
	}
	if len(reqs) == 0 {
		return nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}

	// Fast path: when every request is answered by a completed in-memory
	// entry, fill the results and commit the counters without building
	// batch state — zero allocations. The scan is read-only and commits
	// nothing until it has seen all requests hit, so a miss falls
	// through to the full path with the stats untouched (results written
	// by a partial scan are simply overwritten below).
	allHit := true
	for i := range reqs {
		k := reqs[i].Key
		if !k.Cacheable() {
			allHit = false
			break
		}
		r := e.lookupDone(k)
		if r == nil {
			allHit = false
			break
		}
		results[i] = r
	}
	if allHit {
		n := int64(len(reqs))
		e.stats.submitted.Add(n)
		e.stats.cacheHits.Add(n)
		if onDone != nil {
			for i := range reqs {
				onDone(i+1, len(reqs))
			}
		}
		return nil
	}

	b := &batch{
		e:       e,
		ctx:     ctx,
		results: results,
		onDone:  onDone,
		total:   len(reqs),
	}
	b.failAt.Store(math.MaxInt64)

	// Resolution pass, sequential in submission order: answer completed
	// cache entries (promoting persisted-tier entries on first use),
	// enlist on in-flight ones (dedup), register this batch's leaders,
	// and expand everything that must simulate into per-replication
	// sub-tasks. Each key's decision is atomic under its shard lock, and
	// resolving before any worker starts makes the hit/dedup/leader
	// assignment — and so the stats — independent of goroutine
	// scheduling.
	var hits []int
	for i := range reqs {
		req := &reqs[i]
		e.stats.submitted.Add(1)
		b.results[i] = nil
		j := &job{req: req, idx: i, runs: max(1, req.Runs)}
		if req.Key.Cacheable() {
			sh := e.shard(req.Key)
			sh.mu.Lock()
			if r, ok := sh.done[req.Key]; ok {
				sh.mu.Unlock()
				e.stats.cacheHits.Add(1)
				b.results[i] = r
				hits = append(hits, i)
				continue
			}
			if r, ok := sh.disk[req.Key]; ok {
				// First use of a loaded entry: promote it to the
				// in-memory cache and count the disk hit.
				delete(sh.disk, req.Key)
				sh.done[req.Key] = r
				sh.mu.Unlock()
				e.stats.diskHits.Add(1)
				b.results[i] = r
				hits = append(hits, i)
				continue
			}
			if en, ok := sh.inflight[req.Key]; ok {
				sh.mu.Unlock()
				e.stats.dedupHits.Add(1)
				b.tasks = append(b.tasks, task{idx: i, wait: en, req: req})
				continue
			}
			j.en = &entry{done: make(chan struct{})}
			sh.inflight[req.Key] = j.en
			sh.mu.Unlock()
		}
		j.loop = req.Adaptive != nil
		if j.loop || j.runs == 1 {
			// One scheduling unit: a single run, or a gated loop whose
			// replication count is decided at run time.
			j.pending = 1
			j.reps = make([]*netsim.Result, 1)
			b.tasks = append(b.tasks, task{j: j})
		} else {
			j.pending = j.runs
			j.reps = make([]*netsim.Result, j.runs)
			for r := 0; r < j.runs; r++ {
				b.tasks = append(b.tasks, task{j: j, rep: r})
			}
		}
	}
	for _, i := range hits {
		b.finish(i, b.results[i])
	}

	if len(b.tasks) > 0 {
		RunDrain(e.workers, len(b.tasks), func(claim func() int) {
			b.worker(claim)
		})
	}

	return errors.Join(b.failErr, b.ctxErr)
}

// RunDrain fans n index-addressed tasks over min(workers, n) goroutines.
// Each worker receives a claim function handing out indices 0..n-1 from a
// shared monotone counter (-1 when drained), so per-worker setup (e.g.
// checking out an evaluator, cloning a solver) happens once per worker
// while task pickup stays load-balanced. RunDrain returns when all
// workers have drained. workers <= 1 still runs on one spawned worker,
// preserving identical code paths for every pool size; which worker runs
// which index is scheduling-dependent, so determinism of the overall
// result must come from indexed output slots, not execution order.
func RunDrain(workers, n int, worker func(claim func() int)) {
	if n <= 0 {
		return
	}
	nw := min(workers, n)
	if nw < 1 {
		nw = 1
	}
	var next atomic.Int64
	next.Store(-1)
	claim := func() int {
		t := int(next.Add(1))
		if t >= n {
			return -1
		}
		return t
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(claim)
		}()
	}
	wg.Wait()
}

// RunIndexed runs fn for every index 0..n-1 across min(workers, n)
// goroutines, the per-task convenience form of RunDrain.
func RunIndexed(workers, n int, fn func(i int)) {
	RunDrain(workers, n, func(claim func() int) {
		for i := claim(); i >= 0; i = claim() {
			fn(i)
		}
	})
}

// finish records one completed request and reports progress.
func (b *batch) finish(i int, res *netsim.Result) {
	b.mu.Lock()
	b.results[i] = res
	b.done++
	if b.onDone != nil {
		b.onDone(b.done, b.total)
	}
	b.mu.Unlock()
}

// worker drains sub-tasks from the shared counter on one checked-out
// evaluator. Deadlock-freedom with dedup waits: within a batch, a
// leader's replication sub-tasks always precede its same-batch waiters
// in task order and the counter is monotone, so by the time a worker
// blocks on a wait, every same-batch leader sub-task is either done or
// actively running on another worker. Across batches the ordering
// argument does not hold — the foreign leader may still be queued
// behind this batch's own workers for an evaluator — so a waiter parks
// its evaluator before blocking: a blocked worker never holds a pool
// resource the leader it waits on might need (with Workers == 1 the
// hold-and-wait would deadlock the whole pool).
func (b *batch) worker(claim func() int) {
	e := b.e
	ev := <-e.evals
	defer func() { e.evals <- ev }()
	for {
		t := claim()
		if t < 0 {
			return
		}
		tk := b.tasks[t]
		if tk.wait != nil {
			ev = b.waitTask(ev, t, tk)
			continue
		}
		if b.skip(t) {
			// Skip the work but still complete the sub-task, so the job
			// finalizes (releasing any waiters) and the batch drains.
			b.completeTask(tk.j, tk.rep, nil, 0, nil, true)
			continue
		}
		n := e.running.Add(1)
		for p := e.peakRunning.Load(); n > p && !e.peakRunning.CompareAndSwap(p, n); p = e.peakRunning.Load() {
		}
		res, ran, err, poisoned := b.runTask(ev, tk.j, tk.rep)
		e.running.Add(-1)
		if poisoned {
			// The evaluator panicked mid-run; its kernel state is suspect.
			ev = netsim.NewEvaluator()
		}
		if err != nil && !b.isCtxErr(err) {
			b.fail(t, err)
		}
		b.completeTask(tk.j, tk.rep, res, ran, err, false)
	}
}

// waitTask resolves one dedup sub-task: wait for the foreign leader of
// the same key and adopt its published result. Two multi-tenant concerns
// shape it beyond a plain channel receive:
//
//   - cancellation: while blocked on a foreign leader the waiter also
//     watches its own batch context, so a disconnected caller does not
//     stay parked until someone else's simulation finishes;
//   - failure isolation: when the foreign leader's batch failed or was
//     cancelled *before the evaluation ran* (errAborted), the key is
//     retryable and this batch must not inherit the foreign failure — the
//     waiter re-resolves the key and, if nobody else claimed it, promotes
//     itself to leader and evaluates the request sequentially (the
//     replication-order merge makes that bit-identical to the fan-out
//     path). Without the retry, one tenant cancelling a request could
//     fail another tenant's identical concurrent request.
//
// It returns the (possibly replaced) evaluator the worker should keep.
// t is the sub-task's index in the batch.
func (b *batch) waitTask(ev *netsim.Evaluator, t int, tk task) *netsim.Evaluator {
	e := b.e
	en := tk.wait
	for {
		if b.skip(t) {
			// The sub-task is doomed; don't block on a foreign leader.
			return ev
		}
		select {
		case <-en.done:
			// Already published; no need to give up the evaluator.
		default:
			// Park the evaluator before blocking: a blocked worker must
			// never hold a pool resource the leader it waits on might need
			// (with Workers == 1 the hold-and-wait would deadlock).
			e.evals <- ev
			if b.ctx == nil {
				<-en.done
			} else {
				select {
				case <-en.done:
				case <-b.ctx.Done():
					b.cancelled()
					return <-e.evals
				}
			}
			ev = <-e.evals
		}
		err := en.err
		if err == nil {
			b.finish(tk.idx, en.res)
			return ev
		}
		if !errors.Is(err, errAborted) {
			// A real evaluation failure: every batch sharing the key
			// reports it.
			b.fail(t, err)
			return ev
		}
		if b.skip(t) {
			// The abort came from this batch's own failure in front of t
			// (or our context's cancellation); its root cause is already
			// recorded.
			return ev
		}
		// Foreign abort: re-resolve the key.
		req := tk.req
		sh := e.shard(req.Key)
		sh.mu.Lock()
		if r, ok := sh.done[req.Key]; ok {
			sh.mu.Unlock()
			b.finish(tk.idx, r)
			return ev
		}
		if r, ok := sh.disk[req.Key]; ok {
			delete(sh.disk, req.Key)
			sh.done[req.Key] = r
			sh.mu.Unlock()
			// Reclassify: the request is answered by the persisted tier,
			// not by a concurrent leader.
			e.stats.dedupHits.Add(-1)
			e.stats.diskHits.Add(1)
			b.finish(tk.idx, r)
			return ev
		}
		if next, ok := sh.inflight[req.Key]; ok {
			sh.mu.Unlock()
			en = next // a new leader took over; wait on it
			continue
		}
		en = &entry{done: make(chan struct{})}
		sh.inflight[req.Key] = en
		sh.mu.Unlock()
		// Promote: this waiter is now the leader. It is no longer a dedup
		// hit — the fresh simulation below counts under Simulated, keeping
		// the submitted = simulated+cache+dedup+disk identity intact.
		e.stats.dedupHits.Add(-1)
		return b.leadRetry(ev, t, req, en, tk.idx)
	}
}

// leadRetry evaluates req sequentially on ev after a waiter promoted
// itself to leader, publishing the result (or failure) exactly like
// finalizeJob. A failure caused by this batch's own cancellation is
// published to other waiters as errAborted — retryable — never as this
// tenant's context error. t is the sub-task's index in the batch.
func (b *batch) leadRetry(ev *netsim.Evaluator, t int, req *Request, en *entry, idx int) *netsim.Evaluator {
	e := b.e
	res, ran, err, poisoned := b.runRetry(ev, req)
	if poisoned {
		ev = netsim.NewEvaluator()
	}
	if err != nil {
		pub := err
		if b.isCtxErr(err) {
			pub = fmt.Errorf("engine: evaluation of %s skipped: %w", req.label(), errAborted)
		}
		sh := e.shard(req.Key)
		sh.mu.Lock()
		delete(sh.inflight, req.Key)
		sh.mu.Unlock()
		en.err = pub
		close(en.done)
		if b.isCtxErr(err) {
			b.cancelled()
		} else {
			b.fail(t, err)
		}
		return ev
	}
	runs := max(1, req.Runs)
	secs := req.Cfg.Duration
	e.stats.simulated.Add(1)
	e.stats.simRuns.Add(int64(ran))
	e.stats.mu.Lock()
	if req.Key.Fidelity == Screen {
		e.stats.screenSeconds += secs * float64(ran)
	} else {
		e.stats.fullSeconds += secs * float64(ran)
	}
	if saved := runs - ran; saved > 0 {
		e.stats.repsSaved += int64(saved)
		e.stats.savedSeconds += secs * float64(saved)
	}
	e.stats.mu.Unlock()
	sh := e.shard(req.Key)
	sh.mu.Lock()
	sh.done[req.Key] = res
	delete(sh.inflight, req.Key)
	sh.mu.Unlock()
	en.res = res
	close(en.done)
	if w := e.spill.Load(); w != nil {
		w.enqueue(req.Key, res)
	}
	b.finish(idx, res)
	return ev
}

// runRetry executes a promoted waiter's whole request sequentially,
// recovering panics like runTask. ran is the number of simulator runs
// performed.
func (b *batch) runRetry(ev *netsim.Evaluator, req *Request) (res *netsim.Result, ran int, err error, poisoned bool) {
	defer func() {
		if r := recover(); r != nil {
			res, ran, err = nil, 0, fmt.Errorf("engine: evaluation of %s panicked: %v", req.label(), r)
			poisoned = true
		}
	}()
	if req.Pre != nil {
		req.Pre()
	}
	res, ran, err = ev.Replicate(b.ctx, req.Cfg, req.Runs, req.Seed, req.Adaptive)
	return res, ran, err, false
}

// runTask executes one replication sub-task — or, for a gated request,
// the whole replication loop — on ev, recovering panics
// (from the Pre hook or the simulator) into errors. ran is the number of
// simulator runs performed.
func (b *batch) runTask(ev *netsim.Evaluator, j *job, rep int) (res *netsim.Result, ran int, err error, poisoned bool) {
	defer func() {
		if r := recover(); r != nil {
			res, ran, err = nil, 0, fmt.Errorf("engine: evaluation of %s panicked: %v", j.req.label(), r)
			poisoned = true
		}
	}()
	j.pre.Do(func() {
		if j.req.Pre != nil {
			j.req.Pre()
		}
	})
	if j.loop {
		// The gated loop is one scheduling unit that may run many
		// replications, so it takes the batch context itself: a cancelled
		// caller stops it at the next replication boundary.
		res, ran, err = ev.Replicate(b.ctx, j.req.Cfg, j.runs, j.req.Seed, j.req.Adaptive)
		return res, ran, err, false
	}
	res, err = ev.Run(j.req.Cfg, j.req.Seed+uint64(rep))
	if err != nil {
		return nil, 0, err, false
	}
	return res, 1, nil, false
}

// completeTask folds one finished (or skipped) sub-task into its job and
// finalizes the job when it was the last one outstanding.
func (b *batch) completeTask(j *job, rep int, res *netsim.Result, ran int, err error, skipped bool) {
	b.mu.Lock()
	switch {
	case skipped:
		j.aborted = true
	case err != nil:
		// Keep the lowest-replication error so a multi-replication
		// failure reports deterministically.
		if j.err == nil || rep < j.errRep {
			j.err, j.errRep = err, rep
		}
	default:
		j.reps[rep] = res
		j.ran += ran
	}
	j.pending--
	last := j.pending == 0
	b.mu.Unlock()
	if last {
		b.finalizeJob(j)
	}
}

// finalizeJob publishes a completed job. On success it merges the
// per-replication partials in replication order (netsim's
// Accumulate/Finalize — bit-identical to the sequential RunAveraged),
// records the stats, publishes the result to its shard (and to the spill
// writer, when attached), and reports it. On failure or abort it
// unregisters the in-flight entry so a later request can retry, and
// releases waiters with the error.
func (b *batch) finalizeJob(j *job) {
	e := b.e
	if j.err == nil && !j.aborted {
		res := j.reps[0]
		if len(j.reps) > 1 {
			pdrs := make([]float64, j.runs)
			for r, pr := range j.reps {
				pdrs[r] = pr.PDR
			}
			for r := 1; r < j.runs; r++ {
				res.Accumulate(j.reps[r])
			}
			res.Finalize(j.runs, j.req.Cfg.BatteryJ, pdrs)
		}
		secs := j.req.Cfg.Duration
		e.stats.simulated.Add(1)
		e.stats.simRuns.Add(int64(j.ran))
		e.stats.mu.Lock()
		if j.req.Key.Fidelity == Screen {
			e.stats.screenSeconds += secs * float64(j.ran)
		} else {
			e.stats.fullSeconds += secs * float64(j.ran)
		}
		if saved := j.runs - j.ran; saved > 0 {
			e.stats.repsSaved += int64(saved)
			e.stats.savedSeconds += secs * float64(saved)
		}
		e.stats.mu.Unlock()
		if j.en != nil {
			sh := e.shard(j.req.Key)
			sh.mu.Lock()
			sh.done[j.req.Key] = res
			delete(sh.inflight, j.req.Key)
			sh.mu.Unlock()
			j.en.res = res
			close(j.en.done)
			if w := e.spill.Load(); w != nil {
				w.enqueue(j.req.Key, res)
			}
		}
		b.finish(j.idx, res)
		return
	}
	err := j.err
	if err == nil || b.isCtxErr(err) {
		// A skipped job, or one whose adaptive loop was stopped by this
		// batch's own cancellation: the evaluation never ran to completion,
		// so the key is retryable. Publish errAborted — never this tenant's
		// context error — so waiters from other batches re-resolve the key
		// instead of inheriting a foreign cancellation.
		err = fmt.Errorf("engine: evaluation of %s skipped: %w", j.req.label(), errAborted)
	}
	if j.en != nil {
		sh := e.shard(j.req.Key)
		sh.mu.Lock()
		delete(sh.inflight, j.req.Key)
		sh.mu.Unlock()
		j.en.err = err
		close(j.en.done)
	}
	if j.err != nil && b.isCtxErr(j.err) {
		b.cancelled() // records ctx's error exactly once
	}
}
