package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// statsz fetches and decodes /statsz.
func statsz(t *testing.T, url string) (st struct {
	Engine struct {
		Evicted       int64 `json:"evicted"`
		ResidentBytes int64 `json:"resident_bytes"`
		BudgetBytes   int64 `json:"budget_bytes"`
	} `json:"engine"`
	Ledger struct {
		Records         int64 `json:"records"`
		SolvedClasses   int64 `json:"solved_classes"`
		ReplayedClasses int64 `json:"replayed_classes"`
		Evicted         int64 `json:"evicted"`
	} `json:"ledger"`
	Memo struct {
		Hits    int64 `json:"hits"`
		Joined  int64 `json:"joined"`
		Waiting int64 `json:"waiting"`
		Filled  int64 `json:"filled"`
	} `json:"memo"`
	Solves       int64 `json:"solves"`
	AlphaStopped int64 `json:"alpha_stopped"`
}) {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// randomBodies draws n seeded tenant profiles across every personalized
// field; every fourth is Γ-robust.
func randomBodies(n int) []string {
	r := rand.New(rand.NewSource(25))
	bodies := make([]string, n)
	for i := range bodies {
		b := fmt.Sprintf(`"body_scale": %.2f, "shadow_db": %.1f, "sigma_scale": %.2f, "battery_frac": %.2f, "seed": %d, "pdr_min": %.2f`,
			0.8+0.4*r.Float64(), float64(r.Intn(13))/2, 0.5+r.Float64(), 0.3+0.7*r.Float64(), 1+r.Intn(1000), 0.7+0.2*r.Float64())
		if i%4 == 3 {
			b += `, "gamma": 1`
		}
		bodies[i] = fastBody(b)
	}
	return bodies
}

// TestLedgerMatchesFreshServers: random tenants sent twice to one shared
// server by two concurrent clients get byte-identical bodies to the ones
// a fresh server (an empty class ledger, memo and cache) returns, while
// the shared server's ledger answers later tenants' MILP calls by replay
// and every repeat from the response memo.
func TestLedgerMatchesFreshServers(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 4
	}
	bodies := randomBodies(n)
	_, ts := newTestServer(t, Config{Workers: 2})
	got := make([][2][]byte, n)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += 2 {
				for k := range got[i] {
					status, body := post(t, ts.URL, bodies[i])
					if status != http.StatusOK {
						t.Errorf("tenant %d: status %d: %s", i, status, body)
					}
					got[i][k] = body
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, b := range bodies {
		_, fresh := newTestServer(t, Config{Workers: 2})
		status, want := post(t, fresh.URL, b)
		if status != http.StatusOK {
			t.Fatalf("tenant %d on a fresh server: status %d: %s", i, status, want)
		}
		for k, b := range got[i] {
			if !bytes.Equal(b, want) {
				t.Fatalf("tenant %d, copy %d: the shared server's body differs from a fresh server's:\n%s\nvs\n%s", i, k, b, want)
			}
		}
		fresh.Close()
	}
	st := statsz(t, ts.URL)
	if st.Ledger.ReplayedClasses == 0 || st.Ledger.SolvedClasses == 0 || st.Ledger.Records == 0 {
		t.Fatalf("ledger %+v: want solves, replays and a filed record", st.Ledger)
	}
	if st.Solves != int64(n) || st.Memo.Filled != int64(n) || st.Memo.Hits != int64(n) {
		t.Fatalf("solves %d, memo %+v: want %d solves, entries and hits", st.Solves, st.Memo, n)
	}
}

// TestCacheBudgetBoundsMemory: a stream of first-time tenants — distinct
// seeds, so no result is ever reused — under a 1 MiB budget never keeps
// more than the budget charged, evicts, and leaves a live heap within the
// budget plus a fixed allowance for the engine's slot arrays, index maps
// and the estimate's slack.
func TestCacheBudgetBoundsMemory(t *testing.T) {
	const budget = 1 << 20
	const allowance = 1 << 20
	n := 2000
	if testing.Short() {
		n = 200
	}
	s, ts := newTestServer(t, withBudget(t, Config{Workers: 2}, budget))
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	base := heap()
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"duration": 1, "max_iterations": 4, "pdr_min": 0.85, "seed": %d}`, i+1)
		if status, data := post(t, ts.URL, body); status != http.StatusOK {
			t.Fatalf("tenant %d: status %d: %s", i, status, data)
		}
		if b, resident := s.Engine().Budget(); b != budget || resident > budget {
			t.Fatalf("tenant %d: %d bytes charged over the %d budget", i, resident, b)
		}
	}
	st := statsz(t, ts.URL)
	if st.Engine.Evicted == 0 || st.Engine.BudgetBytes != budget || st.Engine.ResidentBytes > budget {
		t.Fatalf("engine %+v: want evictions within the %d budget", st.Engine, budget)
	}
	if st.Ledger.ReplayedClasses == 0 {
		t.Fatalf("ledger %+v: the tenants never replayed a class", st.Ledger)
	}
	if live := heap() - base; live > budget+allowance {
		t.Fatalf("live heap grew %d bytes over %d tenants, want at most %d", live, n, budget+allowance)
	} else {
		t.Logf("%d tenants: live heap +%d bytes, %d resident, %d evicted", n, live, st.Engine.ResidentBytes, st.Engine.Evicted)
	}
}
