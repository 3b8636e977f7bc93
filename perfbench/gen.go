package main

import (
	"math"
	"math/rand"

	"hiopt/internal/body"
	"hiopt/internal/design"
	"hiopt/internal/phys"
)

// tenant is one generated user: a personalized §4.1 design problem. The
// fields mirror serve.Profile's simulation-affecting personalization, and
// problem() builds the design.Problem the same way the daemon does, so a
// serve tenant can be replayed layer by layer outside the server.
type tenant struct {
	Floor  float64 `json:"floor"`
	Scale  float64 `json:"scale"`
	Shadow float64 `json:"shadow_db"`
	Seed   uint64  `json:"seed"`
}

// problem builds the tenant's design problem at the given horizon with one
// simulation run per evaluation.
func (t tenant) problem(duration float64) *design.Problem {
	pr := design.PaperProblem(t.Floor)
	pr.Duration = duration
	pr.Runs = 1
	pr.Seed = t.Seed
	pr.Channel.NLoSPenalty += phys.DB(t.Shadow)
	if t.Scale != 1 {
		locs := body.Default()
		for i := range locs {
			locs[i].X *= t.Scale
			locs[i].Y *= t.Scale
			locs[i].Z *= t.Scale
		}
		pr.BodyLocations = locs
	}
	return pr
}

// warmTenant is the seed-independent input of the sweep and serve
// warm-ups: the nominal body and channel, with a simulation seed outside
// the generators' range [1, 2^31].
var warmTenant = tenant{Floor: 0.9, Scale: 1, Seed: 1 << 32}

// Per-workload salts keep the workloads' random streams apart for one
// --seed.
const (
	saltChain = 0x636861696e
	saltSweep = 0x7377656570
	saltServe = 0x7365727665
	saltFront = 0x66726f6e74
)

func newRand(seed uint64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed) ^ salt))
}

// uniform draws from [lo, hi] rounded to step.
func uniform(r *rand.Rand, lo, hi, step float64) float64 {
	return math.Round((lo+(hi-lo)*r.Float64())/step) * step
}

// drawTenant draws a tenant from the chain ranges: PDR floor
// 0.90–0.99, body scale 0.9–1.2, shadowing 0–3 dB.
func drawTenant(r *rand.Rand, floorLo, floorHi, shadowLo float64) tenant {
	return tenant{
		Floor:  uniform(r, floorLo, floorHi, 0.001),
		Scale:  uniform(r, 0.9, 1.2, 0.001),
		Shadow: uniform(r, shadowLo, 3, 0.01),
		Seed:   uint64(r.Int63n(1<<31)) + 1,
	}
}

const (
	deckShallow = 20 // 3-round problems per pass
	deckDeep    = 1  // problems per pass that reach the 132-member class
)

// genChain picks a pass from the catalog. The class mix is fixed (20
// three-round problems, one that reaches the 132-member pool class), so the
// median op always falls inside the 3-round class; the seed picks which
// catalogued problems fill each slot and their order. The deep problem
// comes first.
func genChain(cat []chainEntry, seed uint64) []chainEntry {
	r := newRand(seed, saltChain)
	var shallow, deep []chainEntry
	for _, e := range cat {
		if e.Class == classDeep {
			deep = append(deep, e)
		} else {
			shallow = append(shallow, e)
		}
	}
	var deck []chainEntry
	for _, i := range r.Perm(len(deep))[:deckDeep] {
		deck = append(deck, deep[i])
	}
	for _, i := range r.Perm(len(shallow))[:deckShallow] {
		deck = append(deck, shallow[i])
	}
	return deck
}

const (
	sweepVariants = 8
	sweepHorizon  = 20.0
)

// genSweep draws the Fig. 3 sweep inputs: body/channel variants, run at
// the sweep horizon.
func genSweep(seed uint64) []tenant {
	r := newRand(seed, saltSweep)
	out := make([]tenant, sweepVariants)
	for i := range out {
		out[i] = drawTenant(r, 0.9, 0.9, 0)
	}
	return out
}

// frontInput is one front op: a fresh problem and its reliability grid.
type frontInput struct {
	tenant
	Bounds []float64 `json:"bounds"`
}

const (
	frontHorizon = 5.0
	frontBounds  = 9
)

// genFront returns the i-th front input of a seed: nine bounds, one per
// stratum 0.50, 0.54, …, 0.82, each jittered by up to ±0.01. One bound
// per stratum keeps every front the same shape, so op costs differ by
// problem, not by grid. Bounds stay at or below 0.83 and the horizon is
// 5 s: at 2 s, bounds near 0.90 sent some chains into the 132-member
// class and even 0.83 into the 72-member one, and the op time turned
// bimodal; at 5 s no bound of 40 fronts went past three rounds.
func genFront(seed uint64, i int) frontInput {
	r := newRand(seed^uint64(i+1)*0x9e3779b97f4a7c15, saltFront)
	in := frontInput{tenant: drawTenant(r, 0.9, 0.9, 0)}
	for k := 0; k < frontBounds; k++ {
		in.Bounds = append(in.Bounds, math.Round((0.50+0.04*float64(k)+uniform(r, -0.01, 0.01, 0.01))*100)/100)
	}
	return in
}

// serveTenant is a tenant on the daemon's profile grid.
type serveTenant struct {
	BodyScale float64 `json:"body_scale"`
	ShadowDB  float64 `json:"shadow_db"`
	PDRMin    float64 `json:"pdr_min"`
	Seed      uint64  `json:"seed"`
}

// tenant maps the profile to the problem the daemon builds for it (20 s
// default horizon, one run).
func (s serveTenant) tenant() tenant {
	return tenant{Floor: s.PDRMin, Scale: s.BodyScale, Shadow: s.ShadowDB, Seed: s.Seed}
}

const (
	serveHorizon         = 20.0 // serve.Profile's default duration
	defaultServeNewEvery = 5    // every 5th request is a first-time tenant
)

// serveNewEvery sets the mix's cold share: every serveNewEvery-th request
// introduces a first-time tenant. The default of 5 (20% cold) is an
// assumption, not a measured traffic profile: the repository has no traffic
// data. --serve-new-every changes it to see how serve's metrics depend on
// it; the digests at defaultSeed are pinned for the default only.
var serveNewEvery = defaultServeNewEvery

// serveMix is the generated request stream: Tenants in order of first
// appearance and, per request, the tenant index it asks for. It grows on
// demand, so a run can send any number of requests; the first n requests
// of a seed are the same however far the stream is drawn.
type serveMix struct {
	r        *rand.Rand
	newEvery int
	Tenants  []serveTenant `json:"tenants"`
	Requests []int         `json:"requests"`
}

// genServe starts a seed's skewed tenant mix and draws its first n
// requests: request i%newEvery == 0 introduces a new tenant; the others
// repeat an earlier tenant, biased towards the first ones (index ⌊n·u²⌋),
// so most requests are engine cache reads. Both the cold share and the
// u² skew are assumptions (see serveNewEvery). Floors stay in 0.80–0.88:
// from 0.89 up about a sixth of the tenants went on to the 72- or
// 132-member classes, and a repeated deep tenant turns the latency
// bimodal.
func genServe(seed uint64, n int) *serveMix {
	m := &serveMix{r: newRand(seed, saltServe), newEvery: serveNewEvery}
	if n > 0 {
		m.request(n - 1)
	}
	return m
}

// request returns the tenant index of request i, drawing the stream up to
// it first.
func (m *serveMix) request(i int) int {
	for len(m.Requests) <= i {
		if len(m.Requests)%m.newEvery == 0 {
			m.Tenants = append(m.Tenants, serveTenant{
				BodyScale: uniform(m.r, 0.9, 1.2, 0.01),
				ShadowDB:  uniform(m.r, 0, 3, 0.5),
				PDRMin:    uniform(m.r, 0.80, 0.88, 0.01),
				Seed:      uint64(m.r.Int63n(1<<31)) + 1,
			})
			m.Requests = append(m.Requests, len(m.Tenants)-1)
			continue
		}
		u := m.r.Float64()
		m.Requests = append(m.Requests, int(float64(len(m.Tenants))*u*u))
	}
	return m.Requests[i]
}
