package engine

import (
	"sync"
	"sync/atomic"
	"unsafe"
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

// ledgerSlotBytes is a filed value's bookkeeping in the side table: its
// ring slot and an estimate of its index-map entry (an 8-byte hash, a
// 4-byte slot index and the map's per-entry overhead). LedgerCharge adds
// it to every charge, so an owner charges only its value's own bytes.
const ledgerSlotBytes = int64(unsafe.Sizeof(clockSlot[uint64, any]{})) + 24

// LedgerLookup returns the side-table value filed under hash that match
// accepts, or nil. Unlike Ledger it files nothing on a miss; match must
// be quick and must not call back into the ledger.
func (e *Engine) LedgerLookup(hash uint64, match func(any) bool) any {
	l := &e.led
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.find(hash, match)
}

// find returns the value filed under hash that match accepts, marked
// referenced, or nil. Callers hold mu.
func (l *ledger) find(hash uint64, match func(any) bool) any {
	if s := l.c.get(hash); s != nil && match(s.val) {
		s.ref = true
		return s.val
	}
	return nil
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
	if v := l.find(hash, match); v != nil {
		return v
	}
	v := build()
	l.c.put(hash, v, 0, false, noLimit)
	l.bytes.Store(l.c.bytes)
	return v
}

// LedgerCharge sets the charge of v — filed under hash by Ledger — to
// bytes plus its slot in the table, as its owner grows it. On a bounded
// engine the side table may use at most half the budget: charging past
// it evicts other values in CLOCK order, and v itself when it alone
// exceeds that half. The results then shrink to fit what the table
// leaves of the budget. A v no longer filed under hash is not charged.
// LedgerCharge reports whether v is still filed.
func (e *Engine) LedgerCharge(hash uint64, v any, bytes int64) bool {
	l := &e.led
	l.mu.Lock()
	s := l.c.get(hash)
	if s == nil || s.val != v {
		l.mu.Unlock()
		return false
	}
	bytes += ledgerSlotBytes
	limit := int64(noLimit)
	if b := e.budget.Load(); b > 0 {
		limit = b / 2
	}
	filed := bytes <= limit
	if filed {
		l.evicted += int64(l.c.put(hash, v, bytes, false, limit))
		l.c.get(hash).ref = true
	} else {
		l.c.drop(hash)
		l.evicted++
	}
	l.bytes.Store(l.c.bytes)
	l.mu.Unlock()
	e.trimShards()
	return filed
}

// LedgerStats returns the side table's counters.
func (e *Engine) LedgerStats() LedgerStats {
	l := &e.led
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerStats{Records: len(l.c.idx), Evicted: l.evicted}
}
