package des

import (
	"container/heap"
	"testing"

	"hiopt/internal/rng"
)

// refCalendar is the differential oracle for the 4-ary calendar: the
// same clock, sequence and Reset semantics on container/heap, with
// events never recycled, so a cancelled or fired event simply stays
// inactive.
type refCalendar struct {
	now       float64
	seq       uint64
	processed uint64
	q         refHeap
}

type refEvent struct {
	t     float64
	seq   uint64
	fn    func()
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	e.index = -1
	return e
}

func (r *refCalendar) at(t float64, fn func()) *refEvent {
	r.seq++
	e := &refEvent{t: t, seq: r.seq, fn: fn}
	heap.Push(&r.q, e)
	return e
}

func (r *refCalendar) fire(e *refEvent) {
	r.now = e.t
	r.processed++
	e.fn()
}

func (r *refCalendar) step() bool {
	if len(r.q) == 0 {
		return false
	}
	r.fire(heap.Pop(&r.q).(*refEvent))
	return true
}

func (r *refCalendar) run(horizon float64) {
	for len(r.q) > 0 && r.q[0].t <= horizon {
		r.fire(heap.Pop(&r.q).(*refEvent))
	}
	if r.now < horizon {
		r.now = horizon
	}
}

func (r *refCalendar) reset() {
	for _, e := range r.q {
		e.index = -1
	}
	r.q = r.q[:0]
	r.now, r.processed = 0, 0
}

// calendar is the surface both calendars are driven through.
type calendar interface {
	now() float64
	at(t float64, fn func()) (cancel func(), active func() bool)
	step() bool
	run(horizon float64)
	reset()
	pending() int
	processed() uint64
}

type desCalendar struct{ s *Simulator }

func (c desCalendar) now() float64 { return c.s.Now() }
func (c desCalendar) at(t float64, fn func()) (func(), func() bool) {
	h := c.s.At(t, fn)
	return h.Cancel, h.Active
}
func (c desCalendar) step() bool          { return c.s.Step() }
func (c desCalendar) run(horizon float64) { c.s.Run(horizon) }
func (c desCalendar) reset()              { c.s.Reset() }
func (c desCalendar) pending() int        { return c.s.Pending() }
func (c desCalendar) processed() uint64   { return c.s.Processed() }

type oracleCalendar struct{ r *refCalendar }

func (c oracleCalendar) now() float64 { return c.r.now }
func (c oracleCalendar) at(t float64, fn func()) (func(), func() bool) {
	e := c.r.at(t, fn)
	return func() {
			if e.index >= 0 {
				heap.Remove(&c.r.q, e.index)
			}
		}, func() bool {
			return e.index >= 0
		}
}
func (c oracleCalendar) step() bool          { return c.r.step() }
func (c oracleCalendar) run(horizon float64) { c.r.run(horizon) }
func (c oracleCalendar) reset()              { c.r.reset() }
func (c oracleCalendar) pending() int        { return len(c.r.q) }
func (c oracleCalendar) processed() uint64   { return c.r.processed }

// firing is one executed event: its time and its scheduling order, which
// is the calendar's sequence number up to a constant.
type firing struct {
	t   float64
	seq int
}

// player applies one operation stream to one calendar and records every
// firing. Each event's callback reacts by its scheduling order alone —
// some schedule a follow-up (often at the same instant), some cancel an
// earlier handle, stale ones included — so two correct calendars given
// the same stream take the same path.
type player struct {
	c       calendar
	cancels []func()
	actives []func() bool
	fired   []firing
}

func (d *player) at(t float64) {
	seq := len(d.cancels)
	cancel, active := d.c.at(t, func() {
		d.fired = append(d.fired, firing{d.c.now(), seq})
		switch seq % 7 {
		case 0, 3:
			d.at(d.c.now() + float64(seq%4)*0.25)
		case 5:
			d.cancels[(seq*13)%len(d.cancels)]()
		}
	})
	d.cancels = append(d.cancels, cancel)
	d.actives = append(d.actives, active)
}

// TestCalendarMatchesHeapReference drives the 4-ary calendar and the
// container/heap reference through random interleavings of Schedule, At,
// Cancel (of live and stale handles), Step, Run and Reset, with many
// simultaneous events, and requires the same firings in the same order
// and the same Pending, Processed and Active after every operation.
func TestCalendarMatchesHeapReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		g := rng.NewSource(seed).Stream("des/differential")
		got := &player{c: desCalendar{New()}}
		want := &player{c: oracleCalendar{&refCalendar{}}}
		for op := 0; op < 400; op++ {
			k := g.Intn(100)
			// Coarse delays make ties common; fine ones interleave them.
			delay := float64(g.Intn(6)) * 0.5
			if g.Intn(3) == 0 {
				delay = g.Float64() * 3
			}
			horizon := float64(g.Intn(8)) * 0.5
			victim := 0
			if n := len(got.cancels); n > 0 {
				victim = g.Intn(n)
			}
			for _, d := range []*player{got, want} {
				switch {
				case k < 35:
					d.at(d.c.now() + delay) // Schedule
				case k < 50:
					d.at(d.c.now() + delay*2) // At
				case k < 70:
					if len(d.cancels) > 0 {
						d.cancels[victim]()
					}
				case k < 85:
					d.c.step()
				case k < 97:
					d.c.run(d.c.now() + horizon)
				default:
					d.c.reset()
				}
			}
			if got.c.pending() != want.c.pending() || got.c.processed() != want.c.processed() ||
				got.c.now() != want.c.now() {
				t.Fatalf("seed %d op %d: pending/processed/now %d/%d/%g, reference %d/%d/%g", seed, op,
					got.c.pending(), got.c.processed(), got.c.now(),
					want.c.pending(), want.c.processed(), want.c.now())
			}
			if len(got.fired) != len(want.fired) {
				t.Fatalf("seed %d op %d: %d firings, reference %d", seed, op, len(got.fired), len(want.fired))
			}
			for i := range got.fired {
				if got.fired[i] != want.fired[i] {
					t.Fatalf("seed %d op %d: firing %d is %+v, reference %+v", seed, op, i, got.fired[i], want.fired[i])
				}
			}
			for i := range got.actives {
				if got.actives[i]() != want.actives[i]() {
					t.Fatalf("seed %d op %d: handle %d active %v, reference %v", seed, op, i, got.actives[i](), want.actives[i]())
				}
			}
		}
	}
}
