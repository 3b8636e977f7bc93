package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hiopt/internal/netsim"
)

// testSig is the ContextSig of the testRequests fidelity (2 s, 1 run,
// seed 1).
func testSig() uint64 { return ContextSig(2, 1, 1) }

// coldCache evaluates the keyed test requests on a fresh engine and
// saves the cache to path, returning the cold results.
func coldCache(t *testing.T, path string) []*netsim.Result {
	t.Helper()
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.EvaluateBatch(testRequests(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.SaveCache(path, testSig())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(res); n != want {
		t.Fatalf("SaveCache wrote %d entries, want %d", n, want)
	}
	return res
}

// TestWarmRestartBitIdentical is the persistent tier's core contract: a
// fresh engine loading a saved cache answers the same requests with
// bit-identical Results and zero fresh simulations, counting each loaded
// entry as one disk hit (then ordinary cache hits).
func TestWarmRestartBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	cold := coldCache(t, path)

	warm, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := warm.LoadCache(path, testSig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded != len(cold) {
		t.Fatalf("LoadCache loaded %d entries, want %d", loaded, len(cold))
	}
	reqs := testRequests(true)
	if !warm.Cached(reqs[0].Key) {
		t.Fatal("Cached() does not see a loaded persisted-tier entry")
	}
	res, err := warm.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if !reflect.DeepEqual(*res[i], *cold[i]) {
			t.Fatalf("warm result %d diverged from the cold run", i)
		}
	}
	st := warm.Stats()
	if st.Simulated != 0 || st.DiskHits != int64(len(reqs)) || st.CacheHits != 0 {
		t.Fatalf("warm stats = %+v, want 0 simulated, %d disk hits", st, len(reqs))
	}
	if _, err := warm.EvaluateBatch(reqs, nil); err != nil {
		t.Fatal(err)
	}
	st = warm.Stats()
	if st.DiskHits != int64(len(reqs)) || st.CacheHits != int64(len(reqs)) {
		t.Fatalf("re-run stats = %+v: each loaded entry must count one disk hit, then cache hits", st)
	}
}

func TestLoadCacheMissingFile(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.LoadCache(filepath.Join(t.TempDir(), "absent.bin"), testSig())
	if n != 0 || err != nil {
		t.Fatalf("LoadCache(missing) = (%d, %v), want (0, nil)", n, err)
	}
}

func TestLoadCacheForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	if err := os.WriteFile(path, []byte("not a cache file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.LoadCache(path, testSig())
	if n != 0 || err != nil {
		t.Fatalf("LoadCache(foreign) = (%d, %v), want (0, nil)", n, err)
	}
}

func TestLoadCacheSigMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	coldCache(t, path)
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	// A different duration/runs/seed context must load nothing: the
	// engine Key omits them, so cross-context entries would alias.
	n, err := e.LoadCache(path, ContextSig(600, 3, 1))
	if n != 0 || err != nil {
		t.Fatalf("LoadCache(wrong sig) = (%d, %v), want (0, nil)", n, err)
	}
}

func TestLoadCacheVersionBumped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	coldCache(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8]++ // version field, little-endian low byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, _ := New(1)
	n, err := e.LoadCache(path, testSig())
	if n != 0 || err != nil {
		t.Fatalf("LoadCache(version-bumped) = (%d, %v), want (0, nil)", n, err)
	}
}

func TestLoadCacheCorruptEntrySkippedEntryWise(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	total := len(coldCache(t, path))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first entry's payload (the fixed entry
	// prefix ends at header+17; +10 lands mid-payload, leaving the
	// length framing intact) — only that entry's checksum breaks.
	data[snapHeaderLen+snapEntryFixed+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, _ := New(1)
	n, err := e.LoadCache(path, testSig())
	if err != nil {
		t.Fatal(err)
	}
	if n != total-1 {
		t.Fatalf("LoadCache(one corrupt entry) = %d entries, want %d (entry-wise skip)", n, total-1)
	}
}

// TestLoadCacheCountsDuplicateKeysOnce: a file whose entries appear
// twice (a snapshot's entries appended to itself) loads each key once,
// and the count LoadCache reports equals the keys that answer Cached.
func TestLoadCacheCountsDuplicateKeysOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	total := len(coldCache(t, path))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, data[snapHeaderLen:]...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, _ := New(1)
	n, err := e.LoadCache(path, testSig())
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, r := range testRequests(true) {
		if e.Cached(r.Key) {
			cached++
		}
	}
	if n != total || cached != total {
		t.Fatalf("LoadCache(every entry twice) = %d entries, %d keys cached, want %d and %d", n, cached, total, total)
	}
	// Loading the same file again adds no key the tier does not hold.
	if n, err := e.LoadCache(path, testSig()); err != nil || n != 0 {
		t.Fatalf("reloading = (%d, %v), want (0, nil)", n, err)
	}
}

func TestLoadCacheTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	total := len(coldCache(t, path))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last entry: everything before it must survive.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	e, _ := New(1)
	n, err := e.LoadCache(path, testSig())
	if err != nil {
		t.Fatal(err)
	}
	if n != total-1 {
		t.Fatalf("LoadCache(truncated) = %d entries, want %d", n, total-1)
	}
}

// TestSpillAccumulatesAcrossRuns: run 1 spills its fresh results; run 2
// loads them (disk hits, no re-spill) and appends only its new work; run
// 3 sees the union.
func TestSpillAccumulatesAcrossRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	reqs := testRequests(true)
	sig := testSig()

	e1, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SpillTo(path, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.EvaluateBatch(reqs[:4], nil); err != nil {
		t.Fatal(err)
	}
	if err := e1.CloseSpill(); err != nil {
		t.Fatal(err)
	}

	e2, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := e2.AttachCacheFile(path, sig)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 4 {
		t.Fatalf("run 2 loaded %d entries, want 4", loaded)
	}
	if _, err := e2.EvaluateBatch(reqs, nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	st := e2.Stats()
	if st.DiskHits != 4 || st.Simulated != int64(len(reqs)-4) {
		t.Fatalf("run 2 stats = %+v, want 4 disk hits and %d simulated", st, len(reqs)-4)
	}

	e3, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := e3.LoadCache(path, sig)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reqs) {
		t.Fatalf("run 3 loaded %d entries, want the union %d", n, len(reqs))
	}
}

// TestSpillTrimsTruncatedTail: a crash mid-append leaves a ragged tail;
// the next SpillTo must trim it and keep appending valid entries.
func TestSpillTrimsTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	reqs := testRequests(true)
	sig := testSig()

	e1, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SpillTo(path, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.EvaluateBatch(reqs[:4], nil); err != nil {
		t.Fatal(err)
	}
	if err := e1.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := e2.AttachCacheFile(path, sig)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 4 {
		t.Fatalf("loaded %d entries from the ragged file, want 4", loaded)
	}
	if _, err := e2.EvaluateBatch(reqs, nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.CloseSpill(); err != nil {
		t.Fatal(err)
	}

	e3, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := e3.LoadCache(path, sig)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reqs) {
		t.Fatalf("after tail repair the file holds %d entries, want %d", n, len(reqs))
	}
}

// TestSpillMismatchedFileRecreated: attaching a spill to a file written
// under another context must recreate it, never mix contexts.
func TestSpillMismatchedFileRecreated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	coldCache(t, path) // written under testSig
	otherSig := ContextSig(600, 3, 7)

	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SpillTo(path, otherSig); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvaluateBatch(testRequests(true)[:2], nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	check, _ := New(1)
	if n, err := check.LoadCache(path, testSig()); n != 0 || err != nil {
		t.Fatalf("old context still loads %d entries (err %v) after recreation", n, err)
	}
	check2, _ := New(1)
	if n, err := check2.LoadCache(path, otherSig); n != 2 || err != nil {
		t.Fatalf("new context loads %d entries (err %v), want 2", n, err)
	}
}

func TestDoubleSpillRejected(t *testing.T) {
	dir := t.TempDir()
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SpillTo(filepath.Join(dir, "a.bin"), testSig()); err != nil {
		t.Fatal(err)
	}
	if err := e.SpillTo(filepath.Join(dir, "b.bin"), testSig()); err == nil {
		t.Fatal("second SpillTo accepted while the first is attached")
	}
	if err := e.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseSpill(); err != nil {
		t.Fatalf("CloseSpill is not idempotent: %v", err)
	}
}

// TestSaveCacheDeterministicBytes: identical caches must serialize to
// byte-identical files (sorted key order), so cache artifacts can be
// compared directly.
func TestSaveCacheDeterministicBytes(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.bin")
	b := filepath.Join(dir, "b.bin")
	coldCache(t, a)
	coldCache(t, b)
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(da, db) {
		t.Fatal("two saves of identical caches produced different bytes")
	}
}

// TestResultCodecRoundTripsLatencyDropped: the snapVersion-2 payload
// field must survive the codec exactly; a synthetic nonzero value guards
// against the encoder and decoder silently skipping it in lockstep.
func TestResultCodecRoundTripsLatencyDropped(t *testing.T) {
	r := &netsim.Result{
		Locations:      []int{0, 3},
		Duration:       2,
		PDR:            0.5,
		MeanLatency:    0.01,
		P95Latency:     0.02,
		MaxLatency:     0.03,
		LatencyDropped: 7,
		Runs:           1,
	}
	got, ok := decodeResult(appendResult(nil, r))
	if !ok {
		t.Fatal("round-trip payload rejected")
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round-trip diverged:\n got %+v\nwant %+v", got, r)
	}
}
