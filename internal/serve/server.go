package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"hiopt/internal/core"
	"hiopt/internal/engine"
)

// CacheSig is the cache-file context signature of the daemon. The
// single-tenant CLIs sign their files with the run's (duration, runs,
// seed); the daemon serves every fidelity from one file, with the
// per-request fidelity folded into each tenant's key salt instead — so
// the file itself carries a fixed service signature.
const CacheSig = 0x68697365727665 // "hiserve"

// DefaultCacheBytes is the byte budget of a server-owned engine: 2 MiB,
// about 5.7k cached twenty-second results at ~365 B each, less what the
// ledger holds — class records and response-memo entries (~550 B each),
// which together may take at most half of it (DESIGN.md §16). A daemon
// mints first-time tenants without end, so unlike a batch run its
// engine must evict.
const DefaultCacheBytes = 2 << 20

// Config sizes a Server.
type Config struct {
	// Engine, when non-nil, is the shared evaluation service (its cache
	// is then shared with whatever else uses it — e.g. a warm cache
	// file; its byte budget is its owner's). When nil the server owns an
	// engine with Workers workers and a DefaultCacheBytes budget.
	Engine *engine.Engine
	// Workers sizes the owned engine's worker pool (0 = GOMAXPROCS).
	// Ignored when Engine is set.
	Workers int
	// Capacity is the admission semaphore's total weight units (0
	// selects 2 × the engine's worker count): the number of nominal
	// requests solving concurrently. Requests beyond it queue.
	Capacity int
	// MaxQueue bounds the admission wait queue (0 selects 8 × Capacity);
	// requests beyond it receive 429 with Retry-After.
	MaxQueue int
	// RobustWeight is the admission weight of a Γ-robust request
	// (0 selects 4): one robust solve costs a scenario family per
	// candidate, so it occupies several nominal slots.
	RobustWeight int
}

// Server is the design-as-a-service daemon: an http.Handler exposing
//
//	POST /v1/design  — solve a personalized design problem (Profile in,
//	                   Response out; NDJSON progress when Stream is set)
//	GET  /healthz    — liveness
//	GET  /statsz     — engine, class-ledger, response-memo, admission
//	                   and solve counters
//	                   (non-deterministic; kept off /v1/design so its
//	                   body stays bit-stable)
//
// Determinism contract: the same request body yields a byte-identical
// response body regardless of concurrent tenants — personalization is
// quantized, the problem is built from the quantized values, results
// come from the engine's deterministic submission-order merge, and
// nothing wall-clock-dependent is written to /v1/design responses. So a
// repeat of an answered profile is written from the response memo
// (memo.go), ahead of admission and without a solve.
type Server struct {
	cfg Config
	eng *engine.Engine
	adm *admission
	mux *http.ServeMux

	// solves counts completed Algorithm 1 runs; alphaStopped those the
	// α bound ended (DESIGN.md §6) rather than an exhausted MILP.
	solves, alphaStopped atomic.Int64
	// solvedClasses and replayedClasses split the completed runs' MILP
	// oracle calls into fresh solves and class-ledger replays.
	solvedClasses, replayedClasses atomic.Int64
	// memoHits counts requests answered from the response memo (never
	// counted as solves); memoJoined those answered by waiting for an
	// identical solve in flight; memoFilled the answers filed in the memo.
	// memoWaiting is the number of requests waiting for a flight now.
	memoHits, memoJoined, memoFilled, memoWaiting atomic.Int64

	// flights holds the solves in progress by normalized profile (Stream
	// cleared), so concurrent first requests for one profile run one
	// solve (memo.go).
	flightMu sync.Mutex
	flights  map[Profile]*flight
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	eng := cfg.Engine
	if eng == nil {
		var err error
		eng, err = engine.New(cfg.Workers)
		if err != nil {
			return nil, err
		}
		if err := eng.SetBudget(DefaultCacheBytes); err != nil {
			return nil, err
		}
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 2 * eng.Workers()
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 8 * cfg.Capacity
	}
	if cfg.RobustWeight == 0 {
		cfg.RobustWeight = 4
	}
	s := &Server{cfg: cfg, eng: eng, adm: newAdmission(cfg.Capacity, cfg.MaxQueue), flights: make(map[Profile]*flight)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/design", s.handleDesign)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/statsz", s.handleStats)
	return s, nil
}

// Engine exposes the evaluation service (for cache attach/spill
// management by the daemon binary).
func (s *Server) Engine() *engine.Engine { return s.eng }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Design is the selected configuration in a Response.
type Design struct {
	// Locations, Routing, MAC, and TxMode identify the configuration;
	// Point is its human-readable Fig. 3-style label.
	Point     string `json:"point"`
	Locations []int  `json:"locations"`
	Routing   string `json:"routing"`
	MAC       string `json:"mac"`
	TxMode    int    `json:"tx_mode"`
	// PDR, PowerMW, and NLTDays are the simulated metrics; AnalyticMW is
	// the Eq. (9) estimate the MILP optimized.
	PDR        float64 `json:"pdr"`
	PowerMW    float64 `json:"power_mw"`
	NLTDays    float64 `json:"nlt_days"`
	AnalyticMW float64 `json:"analytic_mw"`
	// WorstPDR and WorstScenario report the fault-family screen of a
	// Γ-robust request (absent otherwise).
	WorstPDR      float64 `json:"worst_pdr,omitempty"`
	WorstScenario string  `json:"worst_scenario,omitempty"`
}

// Response is the deterministic result body of POST /v1/design.
type Response struct {
	// Status is the Algorithm 1 outcome: "optimal", "infeasible", or
	// "budget-exceeded" (best-so-far design, no optimality proof).
	Status string `json:"status"`
	// Profile echoes the normalized (quantized) profile actually solved.
	Profile Profile `json:"profile"`
	// Design is the selected configuration (absent when infeasible).
	Design *Design `json:"design,omitempty"`
	// Iterations and Evaluations summarize the search (deterministic:
	// both depend only on the problem, never on cache warmth or
	// concurrency).
	Iterations  int `json:"iterations"`
	Evaluations int `json:"evaluations"`
}

// event is one NDJSON stream line: an iteration, the final result, or a
// terminal error.
type event struct {
	Event string `json:"event"`
	*core.IterationEvent
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	used, capacity, queued := s.adm.loadStats()
	budget, resident := s.eng.Budget()
	led := s.eng.LedgerStats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"engine": struct {
			engine.Stats
			ResidentBytes int64 `json:"resident_bytes"`
			BudgetBytes   int64 `json:"budget_bytes"`
		}{s.eng.Stats(), resident, budget},
		"ledger": map[string]int64{
			"records":          int64(led.Records),
			"solved_classes":   s.solvedClasses.Load(),
			"replayed_classes": s.replayedClasses.Load(),
			"evicted":          led.Evicted,
		},
		"memo": map[string]int64{
			"hits":    s.memoHits.Load(),
			"joined":  s.memoJoined.Load(),
			"waiting": s.memoWaiting.Load(),
			"filled":  s.memoFilled.Load(),
		},
		"admission": map[string]int{
			"used": used, "capacity": capacity, "queued": queued,
		},
		"workers":       s.eng.Workers(),
		"shards":        s.eng.Shards(),
		"solves":        s.solves.Load(),
		"alpha_stopped": s.alphaStopped.Load(),
	})
}

// decodeProfile reads one POST /v1/design body the way the daemon
// accepts it: at most 64 KiB (past the cap w, when non-nil, is told to
// close the connection), strict JSON with unknown fields rejected. The
// returned profile is raw — Normalize it before use.
func decodeProfile(w http.ResponseWriter, body io.ReadCloser) (Profile, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<16))
	dec.DisallowUnknownFields()
	var raw Profile
	err := dec.Decode(&raw)
	return raw, err
}

func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	raw, err := decodeProfile(w, r.Body)
	if err != nil {
		http.Error(w, "bad profile: "+err.Error(), http.StatusBadRequest)
		return
	}
	p, err := raw.Normalize()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// A repeat of an answered profile costs no solve, so it neither
	// waits for nor takes an admission slot; nor does a request whose
	// profile another request is solving, which waits for that solve.
	e, f, err := s.answer(r.Context(), p)
	if err != nil {
		// The client went away while waiting; nothing to answer.
		return
	}
	if e != nil {
		if p.Stream {
			replay(w, e)
		} else {
			writeResponse(w, e.resp)
		}
		return
	}
	// This request leads the flight: whatever happens below, land it.
	defer func() { s.land(p, f, e) }()

	weight := 1
	if p.Gamma > 0 {
		weight = s.cfg.RobustWeight
	}
	if err := s.adm.acquire(r.Context(), weight); err != nil {
		if errors.Is(err, errBusy) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		// The client went away while queued; nothing to answer.
		return
	}
	defer s.adm.release(weight)

	if p.Stream {
		e = s.solveStreaming(w, r.Context(), p)
		return
	}
	if e, err = s.solve(r.Context(), p, nil); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client disconnected mid-solve; the write below is a
			// courtesy to proxies that swallowed the disconnect.
			status = 499
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeResponse(w, e.resp)
}

// writeResponse writes a non-streaming answer.
func writeResponse(w http.ResponseWriter, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(resp)
}

// ndjson starts a chunked NDJSON answer and returns its line writer,
// which flushes every line.
func ndjson(w http.ResponseWriter) func(event) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return func(e event) {
		enc.Encode(e)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// solveStreaming answers one request as chunked NDJSON: iteration events
// as they happen, then the final result line. Everything is written from
// this goroutine (core calls OnIteration synchronously), so no locking.
// It returns the solve's entry, nil when the solve failed.
func (s *Server) solveStreaming(w http.ResponseWriter, ctx context.Context, p Profile) *memoEntry {
	emit := ndjson(w)
	e, err := s.solve(ctx, p, func(ev core.IterationEvent) {
		emit(event{Event: "iteration", IterationEvent: &ev})
	})
	if err != nil {
		// Mid-stream failure: the status line is long gone, so the error
		// is itself an event (a disconnected client never reads it).
		emit(event{Event: "error", Error: err.Error()})
		return nil
	}
	emit(event{Event: "result", Response: e.streamed()})
	return e
}

// replay answers a streamed request from an entry: the solve's iteration
// lines, then the result line echoing the request's stream: true — the
// bytes solveStreaming wrote for it.
func replay(w http.ResponseWriter, e *memoEntry) {
	emit := ndjson(w)
	for i := range e.events {
		emit(event{Event: "iteration", IterationEvent: &e.events[i]})
	}
	emit(event{Event: "result", Response: e.streamed()})
}

// solve runs one personalized problem to completion on the shared engine
// and files the answer in the response memo. It returns the answer's
// entry, filed or not; a failed or cancelled solve files nothing.
func (s *Server) solve(ctx context.Context, p Profile, onIter func(core.IterationEvent)) (*memoEntry, error) {
	var events []core.IterationEvent
	out, err := core.NewOptimizer(p.problem(), p.options(s.eng, func(ev core.IterationEvent) {
		events = append(events, ev)
		if onIter != nil {
			onIter(ev)
		}
	})).RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	s.solves.Add(1)
	if out.TerminatedByAlpha {
		s.alphaStopped.Add(1)
	}
	s.solvedClasses.Add(int64(out.MILPClasses - out.MILPReplayedClasses))
	s.replayedClasses.Add(int64(out.MILPReplayedClasses))
	p.Stream = false
	resp := &Response{
		Status:      out.Status.String(),
		Profile:     p,
		Iterations:  len(out.Iterations),
		Evaluations: out.Evaluations,
	}
	if out.Best != nil {
		b := out.Best
		resp.Design = &Design{
			Point:      b.Point.String(),
			Locations:  b.Point.Locations(),
			Routing:    b.Point.Routing.String(),
			MAC:        b.Point.MAC.String(),
			TxMode:     b.Point.TxMode,
			PDR:        b.PDR,
			PowerMW:    b.PowerMW,
			NLTDays:    b.NLTDays,
			AnalyticMW: b.AnalyticMW,
		}
		if p.Gamma > 0 {
			resp.Design.WorstPDR = b.WorstPDR
			resp.Design.WorstScenario = b.WorstScenario
		}
	}
	e := &memoEntry{resp: resp, events: events}
	s.memoFile(e)
	return e, nil
}
