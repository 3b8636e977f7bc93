package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"hiopt"
	"hiopt/internal/core"
	"hiopt/internal/engine"
	"hiopt/internal/exhaustive"
	"hiopt/internal/serve"
)

const chainHorizon = 2.0

// runner is one workload: set-up builds everything the timed ops need
// (inputs, problems, engine or server) and finishes with one untimed
// warm-up op, so lazy first-use costs land in setup_s rather than in the
// first timed op. The warm-up input is the same for every seed, so
// setup_s does not change with the inputs. ops runs ops until the
// deadline and records each in t.
type runner interface {
	ops(deadline time.Time, t *tally)
	close()
}

type setupFunc func(seed uint64, par int) (runner, error)

var setups = map[string]setupFunc{
	"chain": setupChain,
	"sweep": setupSweep,
	"serve": setupServe,
	"front": setupFront,
}

// ---- chain: cold Algorithm 1 solves, like hiopt ----

type chainRunner struct{ deck []chainEntry }

func setupChain(seed uint64, par int) (runner, error) {
	cat, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	c := &chainRunner{deck: genChain(cat, seed)}
	// Warm-up: the catalog's first three-round problem.
	for _, e := range cat {
		if e.Class != classDeep {
			_, err = c.solve(e)
			break
		}
	}
	return c, err
}

// solve is one chain op: a cold optimizer with its own default engine.
func (c *chainRunner) solve(e chainEntry) (*core.Outcome, error) {
	out, err := core.NewOptimizer(e.problem(chainHorizon), core.Options{}).Run()
	if err != nil {
		return nil, err
	}
	return out, checkChain(e, out)
}

// ops runs whole passes over the deck, at least one, and stops at the
// pass boundary nearest the deadline: the deep problem is then a fixed
// share of every run, so throughput does not depend on where the deadline
// cuts.
func (c *chainRunner) ops(deadline time.Time, t *tally) {
	for {
		p0 := time.Now()
		for _, e := range c.deck {
			t0 := time.Now()
			_, err := c.solve(e)
			t.record(msSince(t0), err)
		}
		if time.Until(deadline) < time.Since(p0)/2 {
			return
		}
	}
}

func (c *chainRunner) close() {}

// ---- sweep: cold Fig. 3 exhaustive sweeps ----

type sweepRunner struct {
	seed     uint64
	variants []tenant
	digests  map[int]string
}

func setupSweep(seed uint64, par int) (runner, error) {
	s := &sweepRunner{seed: seed, variants: genSweep(seed), digests: map[int]string{}}
	// Warm-up: the nominal body and channel at a 1 s horizon.
	v := warmTenant
	pr := v.problem(1)
	eng, err := engine.New(1)
	if err != nil {
		return nil, err
	}
	res, err := exhaustive.Search(pr, exhaustive.Options{Engine: eng})
	if err != nil {
		return nil, err
	}
	return s, checkSweep(v, res, len(pr.Points()))
}

// sweep is one sweep op on a fresh 1-worker engine: one worker keeps the
// simulator's CPU time per sweep steady on a small shared host.
func (s *sweepRunner) sweep(i int) (*exhaustive.Result, error) {
	v := s.variants[i%len(s.variants)]
	pr := v.problem(sweepHorizon)
	eng, err := engine.New(1)
	if err != nil {
		return nil, err
	}
	res, err := exhaustive.Search(pr, exhaustive.Options{Engine: eng})
	if err != nil {
		return nil, err
	}
	if err := checkSweep(v, res, len(pr.Points())); err != nil {
		return res, err
	}
	return res, s.checkDigest(i, sweepDigest(res))
}

// checkDigest compares a sweep with the pinned digest of its variant and
// with earlier sweeps of the same variant in this run.
func (s *sweepRunner) checkDigest(i int, got string) error {
	k := i % len(s.variants)
	if err := checkPinned(pinnedSweep, s.seed, k, got); err != nil {
		return fmt.Errorf("sweep %w", err)
	}
	if prev, ok := s.digests[k]; ok && prev != got {
		return fmt.Errorf("sweep variant %d: digest %s, earlier %s", k, got, prev)
	}
	s.digests[k] = got
	return nil
}

func (s *sweepRunner) ops(deadline time.Time, t *tally) {
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		_, err := s.sweep(i)
		t.record(msSince(t0), err)
	}
}

func (s *sweepRunner) close() {}

// ---- front: the reliability–lifetime front through the façade path ----

type frontRunner struct {
	seed uint64
}

func setupFront(seed uint64, par int) (runner, error) {
	f := &frontRunner{seed: seed}
	// Warm-up: the first front of the default seed, cut to three bounds.
	in := genFront(defaultSeed, 0)
	in.Bounds = in.Bounds[:3]
	_, err := f.front(in)
	return f, err
}

// front is one front op through the façade hiopt.ParetoFront, which
// examples/pareto calls; it builds its own engine.
func (f *frontRunner) front(in frontInput) ([]core.ParetoPoint, error) {
	front, err := hiopt.ParetoFront(in.problem(frontHorizon), in.Bounds, hiopt.OptimizerOptions{})
	if err != nil {
		return nil, err
	}
	return front, checkFront(in, front)
}

func (f *frontRunner) ops(deadline time.Time, t *tally) {
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		front, err := f.front(genFront(f.seed, i))
		if err == nil {
			err = checkPinned(pinnedFront, f.seed, i, frontDigest(front))
		}
		t.record(msSince(t0), err)
	}
}

func (f *frontRunner) close() {}

// ---- serve: an in-process daemon over loopback HTTP ----

type serveRunner struct {
	seed   uint64
	par    int
	mix    *serveMix
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{} // closed when hs.Serve returns
	client *http.Client
	url    string

	mu     sync.Mutex
	next   int                // next request index to send
	served map[int]bool       // tenants answered at least once
	bodies map[bodyKey][]byte // first body per tenant and mode
	warm   int                // requests whose tenant had been served before
}

func setupServe(seed uint64, par int) (runner, error) {
	srv, err := serve.New(serve.Config{Workers: par})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveRunner{
		seed: seed, par: par, mix: genServe(seed, 0), srv: srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		done:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: par, MaxIdleConnsPerHost: par}},
		url:    "http://" + ln.Addr().String(),
		served: map[int]bool{},
		bodies: map[bodyKey][]byte{},
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	// Warm-up: a health check and one request for a tenant outside the
	// mix, so the first timed request is still a first-time tenant.
	if _, err := s.health(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serveWarmTenant is the warm-up tenant: the nominal body and channel.
// The mix draws its seeds from [1, 2^31], so it is not a mix tenant.
var serveWarmTenant = serveTenant{BodyScale: 1, ShadowDB: 0, PDRMin: 0.85, Seed: warmTenant.Seed}

func (s *serveRunner) warmUp() error {
	body, code, err := s.post(serveWarmTenant, false)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return &statusError{code: code, body: string(body)}
	}
	return checkServeBody(serveWarmTenant, body)
}

func (s *serveRunner) health() (float64, error) {
	t0 := time.Now()
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("healthz: %s", resp.Status)
	}
	return msSince(t0), err
}

// post sends one profile and returns the response body.
func (s *serveRunner) post(t serveTenant, stream bool) ([]byte, int, error) {
	body, err := json.Marshal(struct {
		serveTenant
		Stream bool `json:"stream,omitempty"`
	}{t, stream})
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Post(s.url+"/v1/design", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// request sends the next request of the mix and verifies its body. It
// returns the tenant index, whether that tenant had been served before,
// and the raw body (an NDJSON stream when stream is set).
func (s *serveRunner) request(stream bool) (int, bool, []byte, error) {
	s.mu.Lock()
	ti := s.mix.request(s.next)
	s.next++
	t := s.mix.Tenants[ti]
	warm := s.served[ti]
	s.mu.Unlock()
	raw, code, err := s.post(t, stream)
	if err != nil {
		return ti, warm, raw, err
	}
	if code != http.StatusOK {
		return ti, warm, raw, &statusError{code: code, body: string(raw)}
	}
	body := raw
	if stream {
		if body, err = resultLine(raw); err != nil {
			return ti, warm, raw, err
		}
	}
	return ti, warm, raw, s.checkBody(bodyKey{ti, stream}, body)
}

// bodyKey identifies a tenant's responses of one mode: a streamed result
// echoes "stream": true in its profile, so it differs from the plain body
// by design.
type bodyKey struct {
	tenant int
	stream bool
}

// checkBody verifies a body and that every body of a tenant and mode in
// this run is byte-identical to its first.
func (s *serveRunner) checkBody(k bodyKey, body []byte) error {
	t := s.mix.Tenants[k.tenant]
	if err := checkServeBody(t, body); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.served[k.tenant] = true
	if first, ok := s.bodies[k]; ok {
		if !bytes.Equal(first, body) {
			return fmt.Errorf("serve tenant %d: body differs from its first in this run", k.tenant)
		}
		return nil
	}
	s.bodies[k] = body
	if k.stream {
		return nil
	}
	if s.mix.newEvery != defaultServeNewEvery {
		return nil
	}
	if err := checkPinned(pinnedServe, s.seed, k.tenant, bodyDigest(body)); err != nil {
		return fmt.Errorf("serve %w", err)
	}
	return nil
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("serve: HTTP %d: %s", e.code, e.body) }

// ops runs a closed loop of par clients: each sends its next request only
// after the previous one returned.
func (s *serveRunner) ops(deadline time.Time, t *tally) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < s.par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				_, warm, _, err := s.request(false)
				ms := msSince(t0)
				mu.Lock()
				t.record(ms, err)
				if warm {
					s.warm++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func (s *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
}

// resultLine extracts the response of an NDJSON stream's result event,
// re-encoded the way the non-streaming handler writes it.
func resultLine(stream []byte) ([]byte, error) {
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var ev struct {
			Event    string          `json:"event"`
			Response json.RawMessage `json:"response"`
			Error    string          `json:"error"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, err
		}
		switch ev.Event {
		case "result":
			return append(ev.Response, '\n'), nil
		case "error":
			return nil, errors.New(ev.Error)
		}
	}
	return nil, errors.New("serve: stream has no result event")
}
