// Command hiserve-bench is the load driver for the hiserve daemon: it
// fires N concurrent clients at POST /v1/design — a mix of personalized
// profiles — and reports sustained designs/sec with p50/p99 latency,
// how many requests the daemon answered from its response memo or by
// waiting for an identical solve in flight, and how many it solved.
// Every in-flight response is checked against the first response of its
// profile: the daemon's determinism contract says identical request
// bodies yield byte-identical response bodies regardless of concurrent
// tenants, so any divergence fails the run.
//
// By default the server runs in-process (no network stack in the way,
// same engine/core path as the daemon); -url points it at a live
// daemon instead.
//
// Usage:
//
//	hiserve-bench -clients 1000 -requests 4000
//	hiserve-bench -url http://localhost:8080 -clients 200
//	hiserve-bench -clients 1000 -json BENCH_simcore.json   # append entry
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hiopt/internal/cli"
	"hiopt/internal/serve"
)

// profiles is the tenant mix: four personalized users plus the nominal
// one, all at quick fidelity so a load run measures the serving stack
// (admission, cache sharing, merge determinism) rather than raw
// simulation wall-time. Distinct tenants exercise distinct cache
// namespaces; repeats within a tenant exercise the shared-warm-result
// path.
var profiles = []string{
	`{"duration": 2, "max_iterations": 6}`,
	`{"duration": 2, "max_iterations": 6, "body_scale": 1.15}`,
	`{"duration": 2, "max_iterations": 6, "shadow_db": 3, "pdr_min": 0.8}`,
	`{"duration": 2, "max_iterations": 6, "battery_frac": 0.5}`,
	`{"duration": 2, "max_iterations": 6, "sigma_scale": 1.5, "pdr_min": 0.85}`,
}

func main() {
	c := cli.New(flag.CommandLine, "hiserve-bench")
	// The in-process server stands in for the daemon, so it runs under
	// the daemon's cache budget.
	c.CacheBudget(serve.DefaultCacheBytes / (1 << 20))
	var (
		url      = flag.String("url", "", "bench a live daemon at this base URL (default: in-process server)")
		clients  = flag.Int("clients", 1000, "concurrent clients")
		requests = flag.Int("requests", 0, "total requests (0 = 2 x clients)")
		workers  = flag.Int("workers", 0, "in-process engine workers (0 = GOMAXPROCS)")
		jsonOut  = flag.String("json", "", "append the result as benchmark \"ServeLoad\" to this BENCH_simcore.json file")
	)
	c.Parse(os.Args[1:])
	if *requests == 0 {
		*requests = 2 * *clients
	}

	// The in-process server's engine; idle when -url names a live daemon.
	eng := c.Start(serve.CacheSig, *workers)
	base := *url
	if base == "" {
		s, err := serve.New(serve.Config{Engine: eng, Capacity: 4 * eng.Workers(), MaxQueue: 4 * *clients})
		c.Check(err)
		ts := httptest.NewServer(s)
		defer ts.Close()
		base = ts.URL
		fmt.Printf("hiserve-bench: in-process server, %d workers, %d shards\n", eng.Workers(), eng.Shards())
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients,
		MaxIdleConnsPerHost: *clients,
	}}

	st0, err := memoStats(client, base)
	c.Check(err)
	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		refs      = make([][]byte, len(profiles))
		fails     atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					return
				}
				pi := i % len(profiles)
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/design", "application/json", strings.NewReader(profiles[pi]))
				if err != nil {
					fails.Add(1)
					fmt.Fprintln(os.Stderr, "hiserve-bench:", err)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)
				if err != nil || resp.StatusCode != http.StatusOK {
					fails.Add(1)
					fmt.Fprintf(os.Stderr, "hiserve-bench: profile %d: status %d: %s\n", pi, resp.StatusCode, body)
					continue
				}
				mu.Lock()
				latencies = append(latencies, lat)
				ref := refs[pi]
				if ref == nil {
					refs[pi] = body
				}
				mu.Unlock()
				if ref != nil && !bytes.Equal(ref, body) {
					fmt.Fprintf(os.Stderr, "hiserve-bench: DETERMINISM VIOLATION on profile %d:\n%s\nvs\n%s\n", pi, ref, body)
					os.Exit(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	st1, err := memoStats(client, base)
	c.Check(err)
	hits := st1.Memo.Hits - st0.Memo.Hits

	if fails.Load() > 0 {
		c.Check(fmt.Errorf("%d of %d requests failed", fails.Load(), *requests))
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	p50, p99 := pct(0.50), pct(0.99)
	dps := float64(len(latencies)) / elapsed.Seconds()
	fmt.Printf("hiserve-bench: %d requests, %d clients, %s elapsed\n", len(latencies), *clients, elapsed.Round(time.Millisecond))
	// The mix cycles five profiles, so past the first requests nearly
	// every design is a memo hit: designs/sec is not solve throughput.
	fmt.Printf("  designs/sec  %.1f (%d of %d answered from the response memo, %d by waiting for an identical solve; %d solves)\n",
		dps, hits, len(latencies), st1.Memo.Joined-st0.Memo.Joined, st1.Solves-st0.Solves)
	fmt.Printf("  p50 latency  %s\n", p50.Round(time.Microsecond))
	fmt.Printf("  p99 latency  %s\n", p99.Round(time.Microsecond))
	fmt.Printf("  determinism  ok (%d profiles byte-stable)\n", len(profiles))

	if *jsonOut != "" {
		c.Check(appendResult(*jsonOut, len(latencies), *clients, dps, hits, p50, p99))
		fmt.Printf("  appended ServeLoad to %s\n", *jsonOut)
	}
	c.Close()
}

// appendResult merges a "ServeLoad" entry into an existing
// BENCH_simcore.json (hibench -benchjson layout), preserving every other
// field. hibench -cmp treats an entry missing from the OLD file as new
// (reported, never a regression), so first-time appends keep the
// benchcmp gates green.
func appendResult(path string, n, clients int, dps float64, memoHits int64, p50, p99 time.Duration) error {
	var file map[string]any
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	case os.IsNotExist(err):
		file = map[string]any{"generated_by": "hiserve-bench", "benchmarks": map[string]any{}}
	default:
		return err
	}
	benches, _ := file["benchmarks"].(map[string]any)
	if benches == nil {
		benches = map[string]any{}
		file["benchmarks"] = benches
	}
	// ns_per_op is the service time per design at the sustained rate. The
	// request latency percentiles are metrics only: with many clients on
	// few workers they are mostly admission queueing and scale with the
	// client count.
	nsPerOp := 0.0
	if dps > 0 {
		nsPerOp = 1e9 / dps
	}
	benches["ServeLoad"] = map[string]any{
		"ns_per_op":     nsPerOp,
		"allocs_per_op": 0,
		"bytes_per_op":  0,
		"metrics": map[string]float64{
			"designs_per_sec": dps,
			"p50_ms":          float64(p50.Microseconds()) / 1e3,
			"p99_ms":          float64(p99.Microseconds()) / 1e3,
			"clients":         float64(clients),
			"requests":        float64(n),
			"memo_hits":       float64(memoHits),
		},
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// statsz is the part of the daemon's /statsz body the load report reads:
// requests answered from the response memo or by waiting for an
// identical solve in flight, and fresh solves (0 from a daemon without
// these counters).
type statsz struct {
	Memo struct {
		Hits   int64 `json:"hits"`
		Joined int64 `json:"joined"`
	} `json:"memo"`
	Solves int64 `json:"solves"`
}

// memoStats reads the daemon's /statsz.
func memoStats(client *http.Client, base string) (statsz, error) {
	var st statsz
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statsz: %w", err)
	}
	return st, nil
}
