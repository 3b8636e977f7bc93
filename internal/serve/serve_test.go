package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hiopt/internal/core"
	"hiopt/internal/engine"
)

// fastBody returns a quick personalized request body: 2 s horizon, one
// run, capped iterations — enough for Algorithm 1 to do real MILP and
// simulation work while keeping the test suite fast.
func fastBody(extra string) string {
	s := `{"duration": 2, "max_iterations": 4`
	if extra != "" {
		s += ", " + extra
	}
	return s + "}"
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// withBudget gives cfg an engine of cfg.Workers workers under a byte
// budget of its own (0 keeps the server-owned engine's default budget).
func withBudget(t *testing.T, cfg Config, bytes int64) Config {
	t.Helper()
	if bytes == 0 {
		return cfg
	}
	eng, err := engine.New(cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetBudget(bytes); err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	return cfg
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/design", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestProfileNormalize(t *testing.T) {
	p, err := Profile{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.BodyScale != 1 || p.PDRMin != 0.9 || p.Duration != 20 || p.Runs != 1 || p.Seed != 1 || p.MaxIterations != 40 {
		t.Fatalf("defaults: %+v", p)
	}
	// Quantization snaps to the grid: 1.004 and 0.996 both round to 1.00.
	a, err := Profile{BodyScale: 1.004}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Profile{BodyScale: 0.996}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.BodyScale != 1 || b.BodyScale != 1 {
		t.Fatalf("grid snap: %v, %v", a.BodyScale, b.BodyScale)
	}
	if a.salt() != b.salt() {
		t.Fatal("quantization-equivalent profiles got different salts")
	}
	// Out-of-range values are rejected, not clamped.
	for _, bad := range []Profile{
		{BodyScale: 3}, {ShadowDB: 40}, {SigmaScale: 9}, {BatteryFrac: 0.001},
		{PDRMin: 1.5}, {Gamma: 7}, {Duration: 9999}, {Runs: 99}, {MaxIterations: 999},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Fatalf("profile %+v normalized without error", bad)
		}
	}
}

func TestProfileSaltNamespaces(t *testing.T) {
	base, _ := Profile{}.Normalize()
	// Simulation-affecting fields move the salt.
	for _, p := range []Profile{
		{BodyScale: 1.1}, {ShadowDB: 2}, {SigmaScale: 1.5}, {BatteryFrac: 0.5},
		{Duration: 30}, {Runs: 2}, {Seed: 9},
	} {
		np, err := p.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if np.salt() == base.salt() {
			t.Fatalf("profile %+v shares the nominal salt", p)
		}
	}
	// Search-steering fields deliberately do not: tenants differing only
	// in the PDR floor or robustness level share every cached result.
	for _, p := range []Profile{
		{PDRMin: 0.8}, {Gamma: 1}, {RobustPDRMin: 0.4}, {MaxIterations: 3},
	} {
		np, err := p.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if np.salt() != base.salt() {
			t.Fatalf("profile %+v needlessly forked the cache namespace", p)
		}
	}
}

// evictingBytes is a cache budget that evicts on every request: each of
// the 16 shards holds about one result, and no class-ledger record fits
// in half of it, so every request solves its MILP chain afresh.
const evictingBytes = 8 << 10

// budgets runs f under the server's default cache budget (cacheBytes 0)
// and under one that evicts on every request, and checks the latter evicted: eviction must
// not move a single response byte.
func budgets(t *testing.T, f func(t *testing.T, cacheBytes int64) *Server) {
	t.Run("default", func(t *testing.T) { f(t, 0) })
	t.Run("evicting", func(t *testing.T) {
		s := f(t, evictingBytes)
		if n := s.Engine().Stats().Evicted; n == 0 {
			t.Fatal("the evicting budget evicted nothing")
		}
	})
}

// TestDeterministicUnderConcurrency is the tentpole acceptance test: 120
// concurrent clients across four personalized tenants, every response
// byte-identical to the others of its tenant regardless of interleaving,
// and the same under a cache budget that evicts on every request.
func TestDeterministicUnderConcurrency(t *testing.T) {
	var ref [][]byte
	budgets(t, func(t *testing.T, cacheBytes int64) *Server {
		s, bodies := deterministicUnderConcurrency(t, cacheBytes)
		if ref == nil {
			ref = bodies
		}
		for i := range ref {
			if !bytes.Equal(ref[i], bodies[i]) {
				t.Fatalf("profile %d: body differs across cache budgets:\n%s\nvs\n%s", i, ref[i], bodies[i])
			}
		}
		return s
	})
}

func deterministicUnderConcurrency(t *testing.T, cacheBytes int64) (*Server, [][]byte) {
	s, ts := newTestServer(t, withBudget(t, Config{Workers: 4, Capacity: 16, MaxQueue: 256}, cacheBytes))
	profiles := []string{
		fastBody(""),
		fastBody(`"body_scale": 1.15`),
		fastBody(`"shadow_db": 3, "pdr_min": 0.8`),
		fastBody(`"battery_frac": 0.5, "sigma_scale": 1.5`),
	}
	// 120 concurrent clients normally; the race-detector gate (make race)
	// runs -short with a smaller fleet — the interleaving coverage comes
	// from the detector, the scale coverage from the full run and the
	// hiserve-bench load driver.
	perProfile := 30
	if testing.Short() {
		perProfile = 6
	}
	type reply struct {
		profile int
		status  int
		body    []byte
	}
	replies := make([]reply, len(profiles)*perProfile)
	var wg sync.WaitGroup
	for pi := range profiles {
		for c := 0; c < perProfile; c++ {
			wg.Add(1)
			go func(pi, c int) {
				defer wg.Done()
				status, body := post(t, ts.URL, profiles[pi])
				replies[pi*perProfile+c] = reply{pi, status, body}
			}(pi, c)
		}
	}
	wg.Wait()
	ref := make([][]byte, len(profiles))
	for _, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("profile %d: status %d: %s", r.profile, r.status, r.body)
		}
		if ref[r.profile] == nil {
			ref[r.profile] = r.body
		} else if !bytes.Equal(ref[r.profile], r.body) {
			t.Fatalf("profile %d responses diverged under concurrency:\n%s\nvs\n%s", r.profile, ref[r.profile], r.body)
		}
	}
	// Distinct tenants solved distinct problems.
	for i := 1; i < len(ref); i++ {
		if bytes.Equal(ref[0], ref[i]) {
			t.Fatalf("profile %d answered with profile 0's body", i)
		}
	}
	var resp Response
	if err := json.Unmarshal(ref[0], &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Design == nil || resp.Design.PDR <= 0 {
		t.Fatalf("nominal design missing: %s", ref[0])
	}
	return s, ref
}

// TestStreamingMatchesNonStreaming: the final "result" line of a
// streamed request carries the same Response a plain request returns,
// preceded by one iteration event per Algorithm 1 round — also under a
// cache budget that evicts on every request.
func TestStreamingMatchesNonStreaming(t *testing.T) {
	budgets(t, streamingMatchesNonStreaming)
}

func streamingMatchesNonStreaming(t *testing.T, cacheBytes int64) *Server {
	s, ts := newTestServer(t, withBudget(t, Config{Workers: 2}, cacheBytes))
	status, plain := post(t, ts.URL, fastBody(""))
	if status != http.StatusOK {
		t.Fatalf("plain: %d: %s", status, plain)
	}
	var plainResp Response
	if err := json.Unmarshal(plain, &plainResp); err != nil {
		t.Fatal(err)
	}

	stream := func() []byte {
		resp, err := http.Post(ts.URL+"/v1/design", "application/json", strings.NewReader(fastBody(`"stream": true`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("stream content type %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// The plain request filed the answer, so both streams are replays of
	// its memo entry; a fresh server's stream is solved live.
	raw := stream()
	if repeat := stream(); !bytes.Equal(raw, repeat) {
		t.Fatalf("streamed repeat diverged:\n%s\nvs\n%s", raw, repeat)
	}
	_, fresh := newTestServer(t, withBudget(t, Config{Workers: 2}, cacheBytes))
	resp, err := http.Post(fresh.URL+"/v1/design", "application/json", strings.NewReader(fastBody(`"stream": true`)))
	if err != nil {
		t.Fatal(err)
	}
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, live) {
		t.Fatalf("replayed stream differs from a live one:\n%s\nvs\n%s", raw, live)
	}
	var iterations int
	var final *Response
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var ev struct {
			Event    string    `json:"event"`
			Iter     *int      `json:"iter"`
			Response *Response `json:"response"`
			Error    string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "iteration":
			if ev.Iter == nil || *ev.Iter != iterations {
				t.Fatalf("iteration events out of order at %d: %s", iterations, sc.Text())
			}
			iterations++
		case "result":
			final = ev.Response
		case "error":
			t.Fatalf("stream error: %s", ev.Error)
		default:
			t.Fatalf("unknown event %q", ev.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("stream ended without a result event")
	}
	if iterations != plainResp.Iterations || iterations == 0 {
		t.Fatalf("stream emitted %d iteration events, plain run recorded %d", iterations, plainResp.Iterations)
	}
	// The echoed profile differs only in the stream flag itself.
	if !final.Profile.Stream {
		t.Fatal("streamed response did not echo stream: true")
	}
	final.Profile.Stream = false
	finalJSON, _ := json.Marshal(final)
	plainJSON, _ := json.Marshal(&plainResp)
	if !bytes.Equal(finalJSON, plainJSON) {
		t.Fatalf("streamed result diverged:\n%s\nvs\n%s", finalJSON, plainJSON)
	}
	if st := statsz(t, ts.URL); st.Solves != 1 || st.Memo.Hits != 2 || st.Memo.Filled != 1 {
		t.Fatalf("solves %d, memo %+v: want 1 solve, 1 entry and 2 hits", st.Solves, st.Memo)
	}
	return s
}

// TestCancelMidStream: a client disconnecting mid-stream must stop the
// in-flight solve — the engine quiesces instead of running the search to
// completion — and must not perturb other tenants' responses.
func TestCancelMidStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// A heavy request: long horizon, many replications, many iterations.
	heavy := `{"duration": 300, "runs": 8, "max_iterations": 150, "stream": true, "seed": 3}`
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/design", strings.NewReader(heavy))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the solve demonstrably started, then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("never saw a first iteration event: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The engine must quiesce: submissions stop growing once the
	// cancellation propagates (within one engine batch).
	deadline := time.Now().Add(30 * time.Second)
	for {
		a := s.Engine().Stats().Submitted
		time.Sleep(300 * time.Millisecond)
		b := s.Engine().Stats().Submitted
		if a == b {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("engine kept simulating long after the client disconnected")
		}
	}
	// And the cancelled tenant's abandoned work must not have corrupted
	// anything: a fresh identical request still solves, deterministically.
	st1, b1 := post(t, ts.URL, fastBody(""))
	st2, b2 := post(t, ts.URL, fastBody(""))
	if st1 != http.StatusOK || st2 != http.StatusOK || !bytes.Equal(b1, b2) {
		t.Fatalf("post-cancellation requests diverged: %d %d\n%s\nvs\n%s", st1, st2, b1, b2)
	}
}

// fillAdmission occupies the only slot and the only queue place of a
// server built with Capacity 1 and MaxQueue 1 with two heavy requests,
// which run until the test ends. Their seeds differ: a second request
// for the first one's profile would wait for its solve, not queue.
func fillAdmission(t *testing.T, url string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	launch := func(seed int) {
		heavy := fmt.Sprintf(`{"duration": 600, "runs": 10, "max_iterations": 200, "seed": %d}`, seed)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/design", strings.NewReader(heavy))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}
	go launch(11) // occupies the only slot
	go launch(12) // fills the queue
	// Wait for slot + queue to fill.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Admission struct{ Used, Queued int } `json:"admission"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Admission.Used >= 1 && st.Admission.Queued >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never filled: %+v", st.Admission)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// overflowed checks that body is turned away with 429 + Retry-After.
func overflowed(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/design", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("overflow request got %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestAdmissionOverflow: with capacity 1 and a queue of 1, the third
// concurrent request must be turned away with 429 + Retry-After.
func TestAdmissionOverflow(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Capacity: 1, MaxQueue: 1})
	fillAdmission(t, ts.URL)
	overflowed(t, ts.URL, fastBody(""))
}

// TestMemoHitSkipsAdmission: with the slot and the queue full, a repeat
// of an answered profile still gets 200 with its first body, plain or
// streamed, while a new profile gets 429.
func TestMemoHitSkipsAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Capacity: 1, MaxQueue: 1})
	status, first := post(t, ts.URL, fastBody(""))
	if status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, first)
	}
	fillAdmission(t, ts.URL)
	if status, again := post(t, ts.URL, fastBody("")); status != http.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("repeat under full admission: status %d:\n%s\nvs\n%s", status, again, first)
	}
	if status, stream := post(t, ts.URL, fastBody(`"stream": true`)); status != http.StatusOK || !bytes.Contains(stream, []byte(`"event":"result"`)) {
		t.Fatalf("streamed repeat under full admission: status %d: %s", status, stream)
	}
	overflowed(t, ts.URL, fastBody(`"seed": 2`))
}

// TestCancelledSolveFilesNothing: a request cancelled mid-solve leaves no
// memo entry, and the next identical request solves afresh and gets a
// fresh server's body.
func TestCancelledSolveFilesNothing(t *testing.T) {
	body := `{"duration": 120, "runs": 3, "max_iterations": 6, "seed": 7, "stream": true}`
	s, ts := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/design", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("never saw a first iteration event: %v", err)
	}
	cancel()
	resp.Body.Close()
	// The handler returns once the solve stopped; then the admission slot
	// is free again.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if used, _, _ := s.adm.loadStats(); used == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the cancelled solve never returned its admission slot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := statsz(t, ts.URL); st.Memo.Filled != 0 || st.Solves != 0 {
		t.Fatalf("solves %d, memo %+v after a cancelled solve, want none", st.Solves, st.Memo)
	}
	status, got := post(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if st := statsz(t, ts.URL); st.Solves != 1 || st.Memo.Hits != 0 || st.Memo.Filled != 1 {
		t.Fatalf("solves %d, memo %+v, want the repeat solved and filed", st.Solves, st.Memo)
	}
	_, fresh := newTestServer(t, Config{Workers: 2})
	if status, want := post(t, fresh.URL, body); status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("body after a cancelled solve differs from a fresh server's (status %d):\n%s\nvs\n%s", status, got, want)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"body_scale": 9}`, `{"nonsense": 1}`, `not json`,
	} {
		status, _ := post(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Fatalf("body %q got status %d, want 400", body, status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/design")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/design got %d, want 405", resp.StatusCode)
	}
}

// TestServeSmoke is the `make serve-smoke` target: assemble the real
// daemon (net/http server, random port), issue 3 concurrent personalized
// requests — one cancelled mid-stream — assert the repeat of a completed
// request is byte-identical, and shut down cleanly.
func TestServeSmoke(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	url := srv.URL

	var wg sync.WaitGroup
	bodies := [2]string{fastBody(""), fastBody(`"body_scale": 1.2, "stream": true`)}
	results := [2][]byte{}
	statuses := [2]int{}
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			statuses[i], results[i] = post(t, url, b)
		}(i, b)
	}
	// Third concurrent request: cancelled mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/design",
			strings.NewReader(`{"duration": 300, "runs": 8, "max_iterations": 150, "stream": true, "seed": 5}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		br := bufio.NewReader(resp.Body)
		br.ReadString('\n')
		cancel()
		resp.Body.Close()
	}()
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, st, results[i])
		}
	}
	// Deterministic repeat of the first (completed) request.
	st, repeat := post(t, url, bodies[0])
	if st != http.StatusOK || !bytes.Equal(repeat, results[0]) {
		t.Fatalf("repeat response diverged (status %d):\n%s\nvs\n%s", st, repeat, results[0])
	}
	// Clean shutdown with the cancelled tenant's work abandoned.
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("server did not shut down cleanly")
	}
	fmt.Println("serve-smoke: 3 concurrent tenants, deterministic repeat, clean shutdown")
}

// TestStatszCountsSolves: one completed request and two repeats show up
// on /statsz as one solve, one memo entry and two memo hits and, since
// the same problem solved directly through core stops by the α bound,
// as one α stop.
func TestStatszCountsSolves(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := fastBody(`"pdr_min": 0.5`)
	for i := 0; i < 3; i++ {
		if status, data := post(t, ts.URL, body); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
	}
	st := statsz(t, ts.URL)
	if st.Memo.Hits != 2 || st.Memo.Filled != 1 {
		t.Fatalf("/statsz memo %+v, want 2 hits and 1 entry filled", st.Memo)
	}

	var raw Profile
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	p, err := raw.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.NewOptimizer(p.problem(), p.options(s.Engine(), nil)).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.TerminatedByAlpha {
		t.Fatal("the probe profile no longer stops by the α bound; pick one that does")
	}
	if st.Solves != 1 || st.AlphaStopped != 1 {
		t.Fatalf("/statsz solves=%d alpha_stopped=%d, want 1 and 1", st.Solves, st.AlphaStopped)
	}
}
