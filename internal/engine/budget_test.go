package engine

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hiopt/internal/netsim"
)

// budgetRequests returns n distinct keyed requests at a 0.2 s horizon: one
// configuration under n seeds, so every result has the same size.
func budgetRequests(n int) []Request {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 0)
	cfg.Duration = 0.2
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Cfg: cfg, Runs: 1, Seed: uint64(i + 1), Key: ScenarioKey(1, uint64(i+1))}
	}
	return reqs
}

// TestClockSecondChance: the hand evicts the first entry whose reference
// bit is clear and spares, once, every entry used since its last sweep.
func TestClockSecondChance(t *testing.T) {
	c := newClock[int, string]()
	for k := 1; k <= 3; k++ {
		c.put(k, "v", 10, false, 30)
	}
	c.get(1).ref = true
	if n := c.put(4, "v", 10, false, 30); n != 1 {
		t.Fatalf("put evicted %d entries, want 1", n)
	}
	if c.get(1) == nil || c.get(2) != nil || c.get(3) == nil || c.get(4) == nil {
		t.Fatalf("resident %v, want 2 evicted and 1 spared by its reference bit", c.idx)
	}
	if c.get(1).ref {
		t.Fatal("the passing hand left entry 1's reference bit set")
	}
	if n := c.put(5, "v", 40, false, 30); n != 0 || c.get(5) != nil || c.bytes != 30 {
		t.Fatalf("an entry larger than the limit was filed (evicted %d, %d bytes resident)", n, c.bytes)
	}
	if n := c.put(6, "v", 10, false, noLimit); n != 0 || c.bytes != 40 {
		t.Fatalf("unbounded put evicted %d entries (%d bytes resident)", n, c.bytes)
	}
}

// TestBudgetEvictionResultNeutral: under a budget far smaller than the
// working set, the resident charge never exceeds the budget, results are
// evicted and re-simulated, and every answer equals an unbounded engine's
// bit for bit.
func TestBudgetEvictionResultNeutral(t *testing.T) {
	reqs := budgetRequests(64)
	ref, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSharded(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	budget := 8 * resultBytes(want[0])
	if err := e.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i, req := range reqs {
			got, err := e.Evaluate(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("pass %d request %d: result differs from the unbounded engine's", pass, i)
			}
			if b, resident := e.Budget(); b != budget || resident > budget {
				t.Fatalf("resident %d bytes over the %d budget", resident, b)
			}
		}
	}
	st := e.Stats()
	if st.Evicted == 0 || st.Simulated <= int64(len(reqs)) {
		t.Fatalf("no eviction under an 8-result budget: %s", st)
	}
	if st.Submitted != st.Simulated+st.CacheHits+st.DedupHits+st.DiskHits {
		t.Fatalf("counter identity broken: %s", st)
	}
	if u := ref.Stats(); u.Evicted != 0 {
		t.Fatalf("unbounded engine evicted %d results", u.Evicted)
	}
}

// TestBudgetedCacheHitZeroAllocs: a bounded engine's hit path sets a
// reference bit and allocates nothing.
func TestBudgetedCacheHitZeroAllocs(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetBudget(1 << 20); err != nil {
		t.Fatal(err)
	}
	reqs := testRequests(true)
	results := make([]*netsim.Result, len(reqs))
	if err := e.EvaluateBatchInto(context.Background(), results, reqs, nil); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := e.EvaluateBatchInto(context.Background(), results, reqs, nil); err != nil {
			t.Error(err)
		}
		if _, err := e.Evaluate(context.Background(), reqs[0]); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("bounded cache hits allocated %.1f objects/op, want 0", allocs)
	}
}

// TestSetBudgetShrinksAtOnce: lowering the budget of a running engine
// evicts down to it immediately, and a negative budget is rejected.
func TestSetBudgetShrinksAtOnce(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvaluateBatch(budgetRequests(32), nil); err != nil {
		t.Fatal(err)
	}
	_, full := e.Budget()
	if err := e.SetBudget(full / 4); err != nil {
		t.Fatal(err)
	}
	if _, resident := e.Budget(); resident > full/4 || e.Stats().Evicted == 0 {
		t.Fatalf("resident %d bytes after shrinking the budget to %d (%s)", resident, full/4, e.Stats())
	}
	if err := e.SetBudget(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// TestLoadCacheRespectsBudget: loading a cache file into a bounded engine
// charges the loaded entries, evicts nothing and skips what does not fit;
// the loaded entries still answer as disk hits.
func TestLoadCacheRespectsBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	reqs := budgetRequests(32)
	cold, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.SaveCache(path, testSig()); err != nil {
		t.Fatal(err)
	}
	e, err := NewSharded(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	budget := 10 * resultBytes(want[0])
	if err := e.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	n, err := e.LoadCache(path, testSig())
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if n != 10 || st.LoadSkipped != int64(len(reqs)-10) || st.Evicted != 0 {
		t.Fatalf("loaded %d, skipped %d, evicted %d; want 10, %d, 0", n, st.LoadSkipped, st.Evicted, len(reqs)-10)
	}
	if _, resident := e.Budget(); resident > budget {
		t.Fatalf("resident %d bytes over the %d budget after loading", resident, budget)
	}
	got, err := e.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a bounded warm engine answered differently from the cold one")
	}
	if d := e.Stats().Sub(st); d.DiskHits != 10 || d.Simulated != int64(len(reqs)-10) {
		t.Fatalf("warm batch: %s, want 10 disk hits", d)
	}
}

// TestLedgerSharesOneValuePerHash: concurrent misses on one hash build
// one value; a value match rejects is replaced; LedgerLookup finds the
// filed value and files nothing on a miss.
func TestLedgerSharesOneValuePerHash(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct{ ok bool }
	var mu sync.Mutex
	builds := 0
	build := func() any {
		mu.Lock()
		builds++
		mu.Unlock()
		return &rec{ok: true}
	}
	match := func(v any) bool { return v.(*rec).ok }
	var got [8]any
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = e.Ledger(7, match, build)
		}(i)
	}
	wg.Wait()
	for _, v := range got {
		if v != got[0] {
			t.Fatal("concurrent misses on one hash got different values")
		}
	}
	if builds != 1 {
		t.Fatalf("%d builds for one hash, want 1", builds)
	}
	got[0].(*rec).ok = false
	if v := e.Ledger(7, match, build); v == got[0] || builds != 2 {
		t.Fatalf("a rejected value was returned (builds %d)", builds)
	}
	if s := e.LedgerStats(); s.Records != 1 {
		t.Fatalf("%d records filed under one hash, want 1", s.Records)
	}
	if v := e.LedgerLookup(7, match); v == nil || v == got[0] {
		t.Fatal("LedgerLookup missed the filed value or returned the rejected one")
	}
	if v := e.LedgerLookup(8, match); v != nil || builds != 2 || e.LedgerStats().Records != 1 {
		t.Fatal("LedgerLookup found or filed a value under an empty hash")
	}
}

// TestLedgerChargedToBudget: ledger charges count against the budget, take
// at most half of it, and squeeze the results out of what they use; a
// value past the half is dropped, and a dropped value is not re-filed by
// a later charge.
func TestLedgerChargedToBudget(t *testing.T) {
	e, err := NewSharded(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := budgetRequests(32)
	res, err := e.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := 20 * resultBytes(res[0])
	if err := e.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	a := e.Ledger(1, func(any) bool { return true }, func() any { return new(int) })
	e.LedgerCharge(1, a, budget/4)
	if _, resident := e.Budget(); resident > budget {
		t.Fatalf("resident %d bytes over the %d budget after a ledger charge", resident, budget)
	}
	b := e.Ledger(2, func(any) bool { return true }, func() any { return new(int) })
	e.LedgerCharge(2, b, budget/3)
	if s := e.LedgerStats(); s.Records != 1 || s.Evicted != 1 || e.led.bytes.Load() != budget/3+ledgerSlotBytes {
		t.Fatalf("ledger %+v, want the older value evicted for the newer", s)
	}
	e.LedgerCharge(2, b, budget)
	if s := e.LedgerStats(); s.Records != 0 || e.led.bytes.Load() != 0 {
		t.Fatalf("ledger %+v, want a value charged past half the budget dropped", s)
	}
	e.LedgerCharge(2, b, 1)
	if s := e.LedgerStats(); s.Records != 0 {
		t.Fatal("a charge re-filed a dropped value")
	}
	if _, resident := e.Budget(); resident > budget {
		t.Fatalf("resident %d bytes over the %d budget", resident, budget)
	}
}
