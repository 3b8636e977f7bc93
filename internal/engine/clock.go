package engine

import (
	"math"
	"unsafe"

	"hiopt/internal/netsim"
)

// clock is a CLOCK (second-chance) cache of byte-charged entries: a ring
// of slots indexed by a map, a hand that sweeps the ring, and one
// reference bit per slot. A hit sets the bit; the hand clears set bits as
// it passes and evicts the first slot whose bit is already clear, so an
// entry used since the last sweep survives one more. Evicted slots go on
// a free list and are reused before the ring grows. The owner serializes
// every call (a shard's mutex, the ledger's mutex).
type clock[K comparable, V any] struct {
	idx   map[K]int32
	slots []clockSlot[K, V]
	free  []int32
	hand  int
	// bytes is the charge of the resident entries.
	bytes int64
}

// clockSlot is one ring slot. live marks an occupied slot; disk marks a
// result loaded from a cache file that no request has used yet (its
// first use counts as a disk hit).
type clockSlot[K comparable, V any] struct {
	key   K
	val   V
	bytes int64
	ref   bool
	disk  bool
	live  bool
}

// noLimit is the limit of an unbounded cache: no charge ever exceeds it,
// so the eviction loop never runs.
const noLimit = math.MaxInt64

func newClock[K comparable, V any]() clock[K, V] {
	return clock[K, V]{idx: make(map[K]int32)}
}

// get returns k's slot, or nil when k is not resident.
func (c *clock[K, V]) get(k K) *clockSlot[K, V] {
	i, ok := c.idx[k]
	if !ok {
		return nil
	}
	return &c.slots[i]
}

// put files v under k at the given charge, replacing k's entry, first
// evicting other entries until the charge fits under limit, and returns
// the number evicted. An entry charged above limit on its own is not
// filed at all (and nothing is evicted for it).
func (c *clock[K, V]) put(k K, v V, bytes int64, disk bool, limit int64) int {
	c.drop(k)
	if bytes > limit {
		return 0
	}
	n := c.evictTo(limit - bytes)
	var i int32
	if m := len(c.free); m > 0 {
		i = c.free[m-1]
		c.free = c.free[:m-1]
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, clockSlot[K, V]{})
	}
	c.slots[i] = clockSlot[K, V]{key: k, val: v, bytes: bytes, disk: disk, live: true}
	c.idx[k] = i
	c.bytes += bytes
	return n
}

// evictTo evicts entries in CLOCK order until the resident charge is at
// most limit, and returns the number evicted.
func (c *clock[K, V]) evictTo(limit int64) int {
	n := 0
	for c.bytes > limit && len(c.idx) > 0 {
		if c.hand >= len(c.slots) {
			c.hand = 0
		}
		s := &c.slots[c.hand]
		switch {
		case !s.live:
		case s.ref:
			s.ref = false
		default:
			c.drop(s.key)
			n++
		}
		c.hand++
	}
	return n
}

// drop removes k (a no-op when it is not resident).
func (c *clock[K, V]) drop(k K) {
	i, ok := c.idx[k]
	if !ok {
		return
	}
	delete(c.idx, k)
	c.bytes -= c.slots[i].bytes
	c.slots[i] = clockSlot[K, V]{}
	c.free = append(c.free, i)
}

// resultSlotBytes is a cached result's bookkeeping beyond the Result
// itself: its ring slot and an estimate of its index-map entry (a
// 16-byte Key, a 4-byte slot index and the map's per-entry overhead).
const resultSlotBytes = int64(unsafe.Sizeof(clockSlot[Key, *netsim.Result]{})) + 32

// resultBytes is the budget charge of one cached result: the Result, the
// backing arrays of its three per-node slices and its slot.
func resultBytes(r *netsim.Result) int64 {
	n := int64(unsafe.Sizeof(*r))
	n += int64(cap(r.Locations)) * int64(unsafe.Sizeof(int(0)))
	n += int64(cap(r.NodePDR)) * int64(unsafe.Sizeof(float64(0)))
	n += int64(cap(r.NodePower)) * int64(unsafe.Sizeof(r.MaxPower))
	return n + resultSlotBytes
}
