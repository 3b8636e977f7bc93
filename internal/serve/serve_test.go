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

// TestDeterministicUnderConcurrency is the tentpole acceptance test: 120
// concurrent clients across four personalized tenants, every response
// byte-identical to the others of its tenant regardless of interleaving.
func TestDeterministicUnderConcurrency(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, Capacity: 16, MaxQueue: 256})
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
}

// TestStreamingMatchesNonStreaming: the final "result" line of a
// streamed request carries the same Response a plain request returns,
// preceded by one iteration event per Algorithm 1 round.
func TestStreamingMatchesNonStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	status, plain := post(t, ts.URL, fastBody(""))
	if status != http.StatusOK {
		t.Fatalf("plain: %d: %s", status, plain)
	}
	var plainResp Response
	if err := json.Unmarshal(plain, &plainResp); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/design", "application/json", strings.NewReader(fastBody(`"stream": true`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var iterations int
	var final *Response
	sc := bufio.NewScanner(resp.Body)
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

// TestAdmissionOverflow: with capacity 1 and a queue of 1, the third
// concurrent request must be turned away with 429 + Retry-After.
func TestAdmissionOverflow(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Capacity: 1, MaxQueue: 1})
	heavy := `{"duration": 600, "runs": 10, "max_iterations": 200}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	launch := func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/design", strings.NewReader(heavy))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}
	go launch() // occupies the only slot
	go launch() // fills the queue
	// Wait for slot + queue to fill, then overflow.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/statsz")
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
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never filled: %+v", st.Admission)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/design", "application/json", strings.NewReader(fastBody("")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("overflow request got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
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

// TestStatszCountsSolves: one completed request shows up on /statsz as
// one solve and, since the same problem solved directly through core
// stops by the α bound, as one α stop.
func TestStatszCountsSolves(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := fastBody(`"pdr_min": 0.5`)
	if status, data := post(t, ts.URL, body); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Solves       int64 `json:"solves"`
		AlphaStopped int64 `json:"alpha_stopped"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
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
