// Package des is the discrete-event simulation kernel underneath the
// Human Intranet network simulator — the OMNeT++ substitute in this
// reproduction. It provides a simulation clock, an event calendar with
// deterministic FIFO ordering among simultaneous events, and cancellable
// event handles (needed by MAC backoff timers and TDMA schedules).
//
// The kernel is allocation-free in the steady state: event structs are
// recycled through a per-simulator free list the moment they fire or are
// cancelled, so Schedule/At/Step/Run stop touching the heap once the pool
// has grown to the calendar's high-water mark. Handles are seq-checked
// values (not pointers), so a stale handle held across an event's firing
// can never cancel the recycled struct's next occupant. See DESIGN.md
// "Performance" for the pooling invariants.
//
// The calendar is a typed 4-ary min-heap on []*Event ordered by
// (time, sequence number). That order is strict and total, so the pop
// order is the same as any other correct priority queue's; the wider
// fan-out halves the tree depth a pop sifts through, and the comparisons
// are direct field reads, not container/heap interface calls.
package des

import "math"

// Event is one calendar entry. Event structs are owned and recycled by
// their Simulator; user code never holds a *Event directly — Schedule and
// At return seq-checked Handle values instead.
type Event struct {
	t     float64
	seq   uint64
	fn    func()
	index int // heap index, -1 while pooled or firing
}

// before reports whether a fires before b: earlier time first, FIFO by
// sequence number among simultaneous events.
func (a *Event) before(b *Event) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// Handle refers to one scheduled occurrence of an event. It is a value
// type (scheduling allocates nothing) and stays safe after the underlying
// Event struct is recycled: the embedded sequence number uniquely
// identifies the occurrence, so Cancel and Active on a stale handle are
// harmless no-ops. The zero Handle is valid and permanently inactive.
type Handle struct {
	s   *Simulator
	e   *Event
	seq uint64
}

// Active reports whether the event is still scheduled: it has neither
// fired nor been cancelled, and the calendar has not been Reset.
func (h Handle) Active() bool {
	return h.e != nil && h.e.index >= 0 && h.e.seq == h.seq
}

// Cancel removes the event from the calendar so it never fires. The event
// struct is recycled immediately, which keeps Pending exact. Cancelling an
// already-fired, already-cancelled, or zero handle is a no-op.
func (h Handle) Cancel() {
	if !h.Active() {
		return
	}
	h.s.remove(h.e.index)
	h.s.recycle(h.e)
}

// Time returns the simulation time the event fires at, or NaN when the
// handle is no longer active.
func (h Handle) Time() float64 {
	if !h.Active() {
		return math.NaN()
	}
	return h.e.t
}

// CacheLine is the cache-line size the kernel pads for: 64 bytes on
// amd64 and on arm64 cores up to Neoverse N1.
const CacheLine = 64

// Simulator owns the clock and the event calendar.
//
// Its mutable fields sit between two CacheLine pads, so no other object
// can share a cache line with them whatever the allocation order. The
// engine makes one Simulator per worker, all on one goroutine, and the
// allocator puts them back to back: unpadded (72 bytes, the 80-byte size
// class) one worker's free-list header and the next worker's clock,
// sequence and calendar header shared a line, which every event on
// either core wrote, so two workers ran little faster than one
// (DESIGN.md §8, "Per-worker state owns its cache lines").
type Simulator struct {
	_         [CacheLine]byte
	now       float64
	seq       uint64
	queue     []*Event // 4-ary heap: the children of i are 4i+1 … 4i+4
	processed uint64
	// free is the event recycling pool. Structs enter it when they fire,
	// are cancelled, or are swept by Reset, and leave it on the next
	// Schedule/At. Its length converges to the calendar's high-water mark.
	free []*Event
	_    [CacheLine]byte
}

// New returns a simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the exact number of events currently scheduled.
// Cancelled events are removed (and recycled) at Cancel time, so they are
// never counted.
func (s *Simulator) Pending() int { return len(s.queue) }

// PoolSize returns the number of recycled event structs currently parked
// in the free list (diagnostics and tests).
func (s *Simulator) PoolSize() int { return len(s.free) }

// recycle parks a popped event in the free list. The closure reference is
// dropped so the kernel does not pin user memory between occupancies; seq
// keeps its last value until reuse so stale handles stay inert.
func (s *Simulator) recycle(e *Event) {
	e.fn = nil
	s.free = append(s.free, e)
}

// take pops a pooled event struct or allocates a fresh one.
func (s *Simulator) take() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &Event{}
}

// Schedule enqueues fn to run after the given non-negative delay and
// returns a cancellable handle.
func (s *Simulator) Schedule(delay float64, fn func()) Handle {
	if delay < 0 {
		panic("des: negative delay")
	}
	return s.At(s.now+delay, fn)
}

// At enqueues fn to run at absolute time t, which must not be in the past.
func (s *Simulator) At(t float64, fn func()) Handle {
	if t < s.now {
		panic("des: scheduling into the past")
	}
	e := s.take()
	s.seq++ // monotone across Reset: pre-Reset handles can never re-match
	e.t, e.seq, e.fn = t, s.seq, fn
	s.queue = append(s.queue, e)
	s.up(len(s.queue)-1, e)
	return Handle{s: s, e: e, seq: e.seq}
}

// Step executes the next pending event. It returns false when the
// calendar is empty. The event struct is recycled before its callback
// runs, so a callback that schedules reuses the struct it fired from.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue[0]
	s.remove(0)
	fn := e.fn
	s.now = e.t
	s.recycle(e)
	s.processed++
	fn()
	return true
}

// Run executes events until the calendar is exhausted or the next event
// lies strictly beyond horizon; the clock is then advanced to horizon.
func (s *Simulator) Run(horizon float64) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if e.t > horizon {
			break
		}
		s.remove(0)
		fn := e.fn
		s.now = e.t
		s.recycle(e)
		s.processed++
		fn()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// up places e at heap position i or above it: the hole at i moves toward
// the root while e fires before the parent there.
func (s *Simulator) up(i int, e *Event) {
	q := s.queue
	for i > 0 {
		p := (i - 1) / 4
		pe := q[p]
		if !e.before(pe) {
			break
		}
		q[i], pe.index = pe, i
		i = p
	}
	q[i], e.index = e, i
}

// down places e at heap position i or below it: the hole at i moves
// toward the leaves while the earliest of its children fires before e.
func (s *Simulator) down(i int, e *Event) {
	q := s.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, me := c, q[c]
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(me) {
				m, me = j, q[j]
			}
		}
		if !me.before(e) {
			break
		}
		q[i], me.index = me, i
		i = m
	}
	q[i], e.index = e, i
}

// remove takes the event at heap position i out of the calendar and
// marks it inactive; the last leaf refills the hole.
func (s *Simulator) remove(i int) {
	q := s.queue
	n := len(q) - 1
	e, last := q[i], q[n]
	q[n] = nil
	s.queue = q[:n]
	e.index = -1
	if i == n {
		return
	}
	if i > 0 && last.before(q[(i-1)/4]) {
		s.up(i, last)
	} else {
		s.down(i, last)
	}
}

// Reset rewinds the clock to zero, drops every pending event into the
// free list, and zeroes the processed counter, so one kernel (and its
// warmed-up event pool) can be reused across independent simulation runs.
// Determinism is preserved because event ordering depends only on the
// relative sequence numbers within a run, and those restart from a clean
// calendar; the internal counter itself is deliberately not rewound so
// handles issued before the Reset can never alias post-Reset events.
func (s *Simulator) Reset() {
	for _, e := range s.queue {
		e.index = -1
		s.recycle(e)
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.processed = 0
}
