package engine

import (
	"sync"
	"sync/atomic"
)

// ledger is the engine's side table: values a search layer derives once
// and reuses across every search on the engine, filed under a caller's
// 64-bit hash. The engine never looks inside a value — core keeps its
// Algorithm 1 class records here (a record is a pure function of the
// relaxation it is filed under), so the engine package stays free of
// core's types. Values are charged to the engine's byte budget next to
// the cached results and evicted in CLOCK order like them; dropping one
// is always safe, because a search holds on to the value it got.
type ledger struct {
	mu sync.Mutex
	c  clock[uint64, any]
	// bytes mirrors c.bytes for the shards' lock-free budget reads.
	bytes   atomic.Int64
	evicted int64 // guarded by mu
}

// LedgerStats describes the side table: the values filed now and the
// values evicted over the engine's lifetime.
type LedgerStats struct {
	Records int
	Evicted int64
}

// Ledger returns the side-table value filed under hash that match
// accepts. Otherwise it files the value build returns under hash —
// replacing whatever was filed there — and returns that. Lookup and
// build are one step under the table's lock, so concurrent misses on one
// hash share one value; match and build must therefore be quick and must
// not call back into the ledger. A new value is charged 0 bytes until
// its owner calls LedgerCharge.
func (e *Engine) Ledger(hash uint64, match func(any) bool, build func() any) any {
	l := &e.led
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.c.get(hash); s != nil && match(s.val) {
		s.ref = true
		return s.val
	}
	v := build()
	l.c.put(hash, v, 0, false, noLimit)
	l.bytes.Store(l.c.bytes)
	return v
}

// LedgerCharge sets the charge of v — filed under hash by Ledger — to
// bytes, as its owner grows it. On a bounded engine the side table may
// use at most half the budget: charging past it evicts other values in
// CLOCK order, and v itself when it alone exceeds that half. The results
// then shrink to fit what the table leaves of the budget. A v no longer
// filed under hash is not charged.
func (e *Engine) LedgerCharge(hash uint64, v any, bytes int64) {
	l := &e.led
	l.mu.Lock()
	s := l.c.get(hash)
	if s == nil || s.val != v {
		l.mu.Unlock()
		return
	}
	limit := int64(noLimit)
	if b := e.budget.Load(); b > 0 {
		limit = b / 2
	}
	if bytes > limit {
		l.c.drop(hash)
		l.evicted++
	} else {
		l.evicted += int64(l.c.put(hash, v, bytes, false, limit))
		l.c.get(hash).ref = true
	}
	l.bytes.Store(l.c.bytes)
	l.mu.Unlock()
	e.trimShards()
}

// LedgerStats returns the side table's counters.
func (e *Engine) LedgerStats() LedgerStats {
	l := &e.led
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerStats{Records: len(l.c.idx), Evicted: l.evicted}
}
