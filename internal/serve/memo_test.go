package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
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

// postOK posts body, fails the test unless it got 200, and returns the
// response body.
func postOK(t *testing.T, url, body string) []byte {
	t.Helper()
	status, data := post(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	return data
}

// occupy fills the only admission slot of a server built with Capacity
// 1 with a heavy request of another profile and returns the function
// that cancels it.
func occupy(t *testing.T, url string) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/design",
			strings.NewReader(`{"duration": 600, "runs": 10, "max_iterations": 200}`))
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "the heavy request to take the slot", func() bool { used, _, _ := adm(t, url); return used == 1 })
	return cancel
}

// adm reads /statsz's admission counters.
func adm(t *testing.T, url string) (used, capacity, queued int) {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Admission struct{ Used, Capacity, Queued int } `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Admission.Used, st.Admission.Capacity, st.Admission.Queued
}

// waitFor polls cond for up to 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConcurrentFirstRequestsSolveOnce: identical first requests that
// arrive while one of them leads a solve wait for it instead of running
// their own — one solve and one memo entry in all — and every client,
// plain or streamed, gets a fresh server's bytes. The leader is held in
// the admission queue behind another tenant until every other request
// waits for it.
func TestConcurrentFirstRequestsSolveOnce(t *testing.T) {
	const n = 8
	body := `{"duration": 10, "max_iterations": 4, "seed": 4`
	bodies := [2]string{body + "}", body + `, "stream": true}`}
	s, ts := newTestServer(t, Config{Workers: 2, Capacity: 1})
	release := occupy(t, ts.URL)

	got := make([][]byte, n)
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var status int
			if status, got[i] = post(t, ts.URL, bodies[i%2]); status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, got[i])
			}
		}()
	}
	send(0)
	waitFor(t, "the leader to queue", func() bool { _, _, queued := adm(t, ts.URL); return queued == 1 })
	for i := 1; i < n; i++ {
		send(i)
	}
	waitFor(t, "every other request to wait for the leader", func() bool { return s.memoWaiting.Load() == n-1 })
	release()
	wg.Wait()
	if t.Failed() {
		return
	}

	if st := statsz(t, ts.URL); st.Solves != 1 || st.Memo.Filled != 1 || st.Memo.Joined != n-1 || st.Memo.Hits != 0 {
		t.Fatalf("solves %d, memo %+v: want 1 solve, 1 entry and %d requests joined to it", st.Solves, st.Memo, n-1)
	}
	for k, b := range bodies {
		_, fresh := newTestServer(t, Config{Workers: 2})
		want := postOK(t, fresh.URL, b)
		for i := k; i < n; i += 2 {
			if !bytes.Equal(got[i], want) {
				t.Fatalf("client %d: body differs from a fresh server's:\n%s\nvs\n%s", i, got[i], want)
			}
		}
	}
}

// TestCancelledLeaderWaiterSolves: when the client of the request that
// leads a profile's solve goes away, a request waiting for it leads a
// solve of its own and gets a fresh server's body.
func TestCancelledLeaderWaiterSolves(t *testing.T) {
	body := `{"duration": 10, "max_iterations": 4, "seed": 9, "stream": true}`
	s, ts := newTestServer(t, Config{Workers: 2, Capacity: 1})
	release := occupy(t, ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/design", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "the leader to queue", func() bool { _, _, queued := adm(t, ts.URL); return queued == 1 })
	var got []byte
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		got = postOK(t, ts.URL, body)
	}()
	waitFor(t, "the waiter", func() bool { return s.memoWaiting.Load() == 1 })
	cancel()
	<-leaderDone
	// The waiter now leads: it queues where the leader was.
	waitFor(t, "the waiter to queue", func() bool {
		_, _, queued := adm(t, ts.URL)
		return queued == 1 && s.memoWaiting.Load() == 0
	})
	release()
	<-waiterDone
	if t.Failed() {
		return
	}
	if st := statsz(t, ts.URL); st.Solves != 1 || st.Memo.Filled != 1 || st.Memo.Joined != 0 {
		t.Fatalf("solves %d, memo %+v: want the waiter's own solve filed and nothing joined", st.Solves, st.Memo)
	}
	_, fresh := newTestServer(t, Config{Workers: 2})
	if want := postOK(t, fresh.URL, body); !bytes.Equal(got, want) {
		t.Fatalf("waiter's body differs from a fresh server's:\n%s\nvs\n%s", got, want)
	}
}
