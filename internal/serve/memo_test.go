package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestMemoEntryBytesMatchHeap: a response-memo entry charges the
// engine's budget within 25% of the live heap it holds, for a nominal and
// a Γ-robust answer. The heap is read over many copies of each entry, so
// the measurement dwarfs the allocator's noise.
func TestMemoEntryBytesMatchHeap(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	for _, body := range []string{fastBody(""), fastBody(`"gamma": 1, "robust_pdr_min": 0.5`)} {
		if status, data := post(t, ts.URL, body); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
		var raw Profile
		if err := json.Unmarshal([]byte(body), &raw); err != nil {
			t.Fatal(err)
		}
		p, err := raw.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		e := s.memoLookup(p)
		if e == nil || len(e.events) == 0 || e.resp.Design == nil {
			t.Fatalf("%s: no memo entry with events and a design", body)
		}
		const n = 2000
		copies := make([]*memoEntry, n)
		base := liveHeap()
		var charged int64
		for i := range copies {
			copies[i] = cloneEntry(e)
			charged += copies[i].bytes()
		}
		held := liveHeap() - base
		runtime.KeepAlive(copies)
		t.Logf("%s: charged %d bytes per entry, heap %d (%.2f×)", body, charged/n, held/n, float64(charged)/float64(held))
		if float64(charged) < 0.75*float64(held) || float64(charged) > 1.25*float64(held) {
			t.Fatalf("%s: %d entries charged %d bytes and hold %d", body, n, charged, held)
		}
	}
}

// liveHeap is the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// cloneEntry copies e into fresh allocations, as a solve builds one.
func cloneEntry(e *memoEntry) *memoEntry {
	r := *e.resp
	if e.resp.Design != nil {
		d := *e.resp.Design
		d.Locations = slices.Clone(d.Locations)
		d.Point = strings.Clone(d.Point)
		d.WorstScenario = strings.Clone(d.WorstScenario)
		r.Design = &d
	}
	c := &memoEntry{resp: &r, events: slices.Clone(e.events)}
	for i := range c.events {
		c.events[i].BestPoint = strings.Clone(c.events[i].BestPoint)
	}
	return c
}
