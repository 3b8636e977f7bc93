package serve

import (
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
// before admission, without running the search again (DESIGN.md §16).

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

// memoLookup returns the entry answering the normalized profile p, or
// nil.
func (s *Server) memoLookup(p Profile) *memoEntry {
	p.Stream = false
	e, _ := s.eng.LedgerLookup(p.memoHash(), memoMatch(p)).(*memoEntry)
	return e
}

// memoFile files a fresh solve's Response and iteration events and
// charges the entry. When a concurrent identical solve filed first, its
// entry stays and this one is dropped; so is an entry larger than the
// ledger's half of the budget.
func (s *Server) memoFile(resp *Response, events []core.IterationEvent) {
	r := *resp
	r.Profile.Stream = false
	e := &memoEntry{resp: &r, events: events}
	h := r.Profile.memoHash()
	if s.eng.Ledger(h, memoMatch(r.Profile), func() any { return e }) == e && s.eng.LedgerCharge(h, e, e.bytes()) {
		s.memoFilled.Add(1)
	}
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
