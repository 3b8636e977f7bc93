package serve

import (
	"context"
	"math"
	"unsafe"

	"hiopt/internal/core"
	"hiopt/internal/fault"
)

// This file is the daemon's response memo. Algorithm 1 is deterministic
// for a given problem, and the determinism contract makes the body a
// pure function of the normalized profile, so every successful Response
// is filed in the engine's side table (engine.Ledger) next to the class
// records, charged to the same budget and evicted in the same CLOCK
// order. A repeat of an answered profile is then written from its entry
// before admission, without running the search again, and a request for
// a profile that another request is solving right now waits for that
// solve instead of starting its own (DESIGN.md §16).

// memoEntry is one answered profile: the Response a fresh solve returned,
// its profile echo with Stream cleared, and the iteration events that
// solve reported, so a streamed repeat replays the stream line for line.
// Immutable once filed.
type memoEntry struct {
	resp   *Response
	events []core.IterationEvent
}

// memoHash is the ledger hash of a normalized profile's answer: every
// field but Stream, so a streamed and a plain request share one entry.
// A hit is confirmed with == on the profile; since every Response field
// is omitempty, equal profiles have byte-identical bodies.
func (p Profile) memoHash() uint64 {
	h := fault.CombineKeys(0x6d656d6f, 1) // "memo", version 1
	for _, g := range profileGrid {
		h = fault.CombineKeys(h, math.Float64bits(g.get(&p)))
	}
	h = fault.CombineKeys(h, uint64(p.Runs))
	h = fault.CombineKeys(h, p.Seed)
	return fault.CombineKeys(h, uint64(p.MaxIterations))
}

// memoMatch accepts the ledger value that answers the normalized profile
// p (Stream cleared).
func memoMatch(p Profile) func(any) bool {
	return func(v any) bool {
		e, ok := v.(*memoEntry)
		return ok && e.resp.Profile == p
	}
}

// streamed is the entry's Response as the result line of a streamed
// request echoes it, with stream: true.
func (e *memoEntry) streamed() *Response {
	r := *e.resp
	r.Profile.Stream = true
	return &r
}

// memoLookup returns the entry answering the normalized profile p, or
// nil.
func (s *Server) memoLookup(p Profile) *memoEntry {
	p.Stream = false
	e, _ := s.eng.LedgerLookup(p.memoHash(), memoMatch(p)).(*memoEntry)
	return e
}

// memoFile files a fresh solve's entry (its profile's Stream cleared)
// and charges it. When a concurrent identical solve filed first, its
// entry stays and this one is dropped; so is an entry larger than the
// ledger's half of the budget.
func (s *Server) memoFile(e *memoEntry) {
	h := e.resp.Profile.memoHash()
	if s.eng.Ledger(h, memoMatch(e.resp.Profile), func() any { return e }) == e && s.eng.LedgerCharge(h, e, e.bytes()) {
		s.memoFilled.Add(1)
	}
}

// flight is one solve in progress. Requests for its profile that arrive
// meanwhile wait on done and are answered from entry, which the leader
// sets before it closes done: nil when the solve failed or was cancelled.
type flight struct {
	done  chan struct{}
	entry *memoEntry
}

// answer returns the entry answering the normalized profile p: from the
// memo, or from an identical solve in flight, waited for until it lands
// or ctx is done (then ctx's error). With neither, it registers and
// returns a flight that the caller leads: it must solve p and land the
// flight, whatever the outcome. A flight that lands without an entry
// sends its waiters round again, so one of them leads the next solve.
func (s *Server) answer(ctx context.Context, p Profile) (*memoEntry, *flight, error) {
	p.Stream = false
	for {
		if e := s.memoLookup(p); e != nil {
			s.memoHits.Add(1)
			return e, nil, nil
		}
		s.flightMu.Lock()
		f := s.flights[p]
		if f == nil {
			// A leader files its entry before it lands, so a miss above
			// that raced with a landing shows up here.
			if e := s.memoLookup(p); e != nil {
				s.flightMu.Unlock()
				s.memoHits.Add(1)
				return e, nil, nil
			}
			f = &flight{done: make(chan struct{})}
			s.flights[p] = f
			s.flightMu.Unlock()
			return nil, f, nil
		}
		s.flightMu.Unlock()
		s.memoWaiting.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
		}
		s.memoWaiting.Add(-1)
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if f.entry != nil {
			s.memoJoined.Add(1)
			return f.entry, nil, nil
		}
	}
}

// land ends the flight for the normalized profile p with the leader's
// entry (nil when its solve failed) and wakes its waiters.
func (s *Server) land(p Profile, f *flight, e *memoEntry) {
	p.Stream = false
	s.flightMu.Lock()
	delete(s.flights, p)
	s.flightMu.Unlock()
	f.entry = e
	close(f.done)
}

// bytes is the entry's footprint for the engine's budget: the entry, its
// Response and Design, the design's location list, the formatted strings
// and the events. Status, routing and MAC names are constants and take
// no heap.
func (e *memoEntry) bytes() int64 {
	n := int64(unsafe.Sizeof(*e)) + int64(unsafe.Sizeof(*e.resp))
	if d := e.resp.Design; d != nil {
		n += int64(unsafe.Sizeof(*d)) + int64(cap(d.Locations))*int64(unsafe.Sizeof(int(0)))
		n += int64(len(d.Point) + len(d.WorstScenario))
	}
	n += int64(cap(e.events)) * int64(unsafe.Sizeof(core.IterationEvent{}))
	for _, ev := range e.events {
		n += int64(len(ev.BestPoint))
	}
	return n
}
