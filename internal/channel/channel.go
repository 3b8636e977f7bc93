// Package channel models the shared wireless medium around the human body:
// the paper's Eq. (1),
//
//	PL_{i,j}(t) = PL̄_{i,j} + δPL_{i,j}(t),
//
// a static mean path-loss matrix plus a time-correlated random variation.
//
// The mean matrix is synthesized from the internal/body geometry with a
// log-distance model and a through-body NLoS penalty (substitution for the
// unavailable NICTA measurement set; DESIGN.md §3). The temporal variation
// is a first-order Gauss–Markov process — exactly the "conditional
// probability density depending on δPL(t−Δt) and Δt" the paper describes
// (Smith et al. [12]), with the empirical table replaced by its standard
// parametric form:
//
//	δ(t) = ρ·δ(t−Δt) + σ·sqrt(1−ρ²)·N(0,1),   ρ = exp(−Δt/τ).
package channel

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"hiopt/internal/body"
	"hiopt/internal/phys"
	"hiopt/internal/rng"
)

// LoadMatrixCSV parses a square path-loss matrix (dB) from CSV — one row
// per line, numeric cells, diagonal entries ignored — the interchange
// format for measured channel campaigns.
func LoadMatrixCSV(r io.Reader) ([][]phys.DB, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("channel: reading matrix CSV: %w", err)
	}
	n := len(records)
	out := make([][]phys.DB, n)
	for i, rec := range records {
		if len(rec) != n {
			return nil, fmt.Errorf("channel: matrix CSV row %d has %d cells, want %d", i, len(rec), n)
		}
		out[i] = make([]phys.DB, n)
		for j, cell := range rec {
			if i == j {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("channel: matrix CSV cell (%d,%d): %w", i, j, err)
			}
			out[i][j] = phys.DB(v)
		}
	}
	return out, nil
}

// Params configures the synthetic body-channel model.
type Params struct {
	// PL0 is the path loss at reference distance D0 in dB.
	PL0 phys.DB
	// D0 is the reference distance in meters.
	D0 float64
	// Exponent is the log-distance path-loss exponent (on-body creeping
	// wave propagation at 2.4 GHz measures between 3 and 4).
	Exponent float64
	// NLoSPenalty is added when the path crosses the torso.
	NLoSPenalty phys.DB
	// Sigma is the standard deviation of the temporal variation in dB.
	Sigma float64
	// Tau is the decorrelation time constant of the variation in seconds
	// (body movement timescale).
	Tau float64

	// BlockDB, BlockMean, and ClearMean parametrize the deep-fade
	// (body-blockage) component: a per-link two-state semi-Markov process
	// that adds BlockDB of extra loss during blockage episodes of
	// exponential mean duration BlockMean seconds, separated by clear
	// intervals of exponential mean ClearMean seconds. Measured on-body
	// channels exhibit such 15–25 dB shadowing events when a limb or the
	// torso interposes; they are the "deep fading" that motivates the
	// paper's mesh topology. BlockDB = 0 disables the component.
	BlockDB   phys.DB
	BlockMean float64
	ClearMean float64
}

// DefaultParams returns the calibrated parameters used throughout the
// reproduction. They are chosen so that the three CC2650 Tx power levels
// land in the qualitative regimes of the paper's Fig. 3: −20 dBm leaves
// most links marginal, −10 dBm closes short links but leaves extremity
// links fade-prone, 0 dBm closes everything with >7 dB of margin.
func DefaultParams() Params {
	return Params{
		PL0:         46,
		D0:          0.1,
		Exponent:    4.2,
		NLoSPenalty: 15,
		Sigma:       9.0,
		Tau:         1.0,
		BlockDB:     18,
		BlockMean:   1.5,
		ClearMean:   25,
	}
}

// Model is the instantaneous-path-loss oracle shared by all nodes of one
// simulation run. It is not safe for concurrent use; each simulation run
// owns its own Model, and Reset re-seeds one in place for the next run.
type Model struct {
	n      int
	params Params
	mean   []phys.DB // row-major n×n
	// pairIdx maps (i, j) to the packed unordered-pair index in one load,
	// replacing the triangular-index arithmetic on every PathLossAt call
	// (the hottest function of a simulation: once per potential receiver
	// per transmission).
	pairIdx []int32 // row-major n×n, -1 on the diagonal
	// pairs holds the temporal state of every unordered pair {i<j},
	// streams by value, so one advance touches one contiguous record.
	pairs []pair
	// keys holds the hashed stream names, fade then block per pair. They
	// depend only on n, so Reset never formats a name twice.
	keys []rng.Key
	// rho caches exp(−Δt/τ) and its innovation scale by Δt. It stays
	// valid across Resets that keep τ and σ.
	rho [rhoSlots]rhoEntry
}

// pair is the temporal state of one unordered location pair.
type pair struct {
	// delta is the Gauss–Markov deviation, advanced to lastT.
	delta, lastT float64
	// blocked reports a blockage episode, which ends (or, when clear,
	// the next one starts) at blockUntil.
	blocked    bool
	blockUntil float64
	fade       rng.Stream
	block      rng.Stream
}

// rhoSlots is the size of the direct-mapped ρ table. The receivers of one
// packet were each last advanced at a different time, so their Δt differ;
// a model sees a few thousand distinct Δt values over a run, and 256
// slots keep most advances off math.Exp.
const (
	rhoBits  = 8
	rhoSlots = 1 << rhoBits
)

// rhoEntry is one ρ table slot: rho = exp(−dt/τ) and scale =
// σ·sqrt(1−rho²), the factors of one Gauss–Markov step over dt. dt = 0
// marks an empty slot (advances always have dt > 0).
type rhoEntry struct {
	dt, rho, scale float64
}

// New builds a channel model over the given locations, with all temporal
// processes seeded from src.
func New(locs []body.Location, params Params, src *rng.Source) *Model {
	m := &Model{}
	m.Reset(locs, params, src)
	return m
}

// NewFromMatrix builds a channel model from a measured mean path-loss
// matrix instead of the synthetic geometric model — the entry point for
// users holding real on-body measurement campaigns (the paper's NICTA
// dataset has this shape). The matrix must be square; it is symmetrized
// by averaging and its diagonal ignored. The temporal-variation
// parameters of params still apply.
func NewFromMatrix(mean [][]phys.DB, params Params, src *rng.Source) (*Model, error) {
	m := &Model{}
	if err := m.ResetFromMatrix(mean, params, src); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset turns m, in place, into the model New(locs, params, src) would
// build, reusing its storage: a simulation loop that re-seeds one model
// per run allocates nothing for the channel after the first.
func (m *Model) Reset(locs []body.Location, params Params, src *rng.Source) {
	m.reset(len(locs), params, src, func(i, j int) phys.DB {
		return meanPathLoss(locs[i], locs[j], params)
	})
}

// ResetFromMatrix is Reset for NewFromMatrix's measured mean matrix. On
// error m is left unchanged.
func (m *Model) ResetFromMatrix(mean [][]phys.DB, params Params, src *rng.Source) error {
	n := len(mean)
	if n == 0 {
		return fmt.Errorf("channel: empty path-loss matrix")
	}
	for i, row := range mean {
		if len(row) != n {
			return fmt.Errorf("channel: matrix row %d has %d entries, want %d", i, len(row), n)
		}
	}
	m.reset(n, params, src, func(i, j int) phys.DB {
		return (mean[i][j] + mean[j][i]) / 2
	})
	return nil
}

func (m *Model) reset(n int, params Params, src *rng.Source, meanOf func(i, j int) phys.DB) {
	if math.Float64bits(params.Tau) != math.Float64bits(m.params.Tau) ||
		math.Float64bits(params.Sigma) != math.Float64bits(m.params.Sigma) {
		clear(m.rho[:])
	}
	m.params = params
	if n != m.n || m.pairs == nil {
		m.resize(n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.mean[i*n+j] = meanOf(i, j)
			}
		}
	}
	// Stationary start for the blockage process: blocked with
	// probability BlockMean/(BlockMean+ClearMean).
	pBlocked := params.BlockMean / (params.BlockMean + params.ClearMean)
	for k := range m.pairs {
		p := &m.pairs[k]
		p.fade.Reseed(src, m.keys[2*k])
		// Start each process in its stationary distribution so early
		// simulation time is not biased toward zero deviation.
		p.delta = params.Sigma * p.fade.Norm()
		p.lastT = 0
		p.blocked, p.blockUntil = false, 0
		if params.BlockDB > 0 {
			p.block.Reseed(src, m.keys[2*k+1])
			p.blocked = p.block.Float64() < pBlocked
			if p.blocked {
				p.blockUntil = p.block.Exp(params.BlockMean)
			} else {
				p.blockUntil = p.block.Exp(params.ClearMean)
			}
		}
	}
}

// resize allocates the per-location and per-pair storage for n locations
// and hashes the pair streams' names.
func (m *Model) resize(n int) {
	pairs := n * (n - 1) / 2
	m.n = n
	m.mean = make([]phys.DB, n*n)
	m.pairIdx = make([]int32, n*n)
	m.pairs = make([]pair, pairs)
	m.keys = make([]rng.Key, 2*pairs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.pairIdx[i*n+j] = -1
				continue
			}
			m.pairIdx[i*n+j] = int32(m.pairIndex(i, j))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := m.pairIndex(i, j)
			m.keys[2*k] = rng.KeyOf(fmt.Sprintf("channel/fade/%d-%d", i, j))
			m.keys[2*k+1] = rng.KeyOf(fmt.Sprintf("channel/block/%d-%d", i, j))
		}
	}
}

func meanPathLoss(a, b body.Location, p Params) phys.DB {
	d := body.Distance(a, b)
	if d < p.D0 {
		d = p.D0
	}
	pl := float64(p.PL0) + float64(10*p.Exponent*math.Log10(d/p.D0))
	if body.Shadowed(a, b) {
		pl += float64(p.NLoSPenalty)
	}
	return phys.DB(pl)
}

func (m *Model) pairIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Index into the strictly-upper-triangular packing.
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// NumLocations returns the number of locations the model covers.
func (m *Model) NumLocations() int { return m.n }

// Params returns the model parameters.
func (m *Model) Params() Params { return m.params }

// MeanPL returns the time-averaged path loss between locations i and j.
func (m *Model) MeanPL(i, j int) phys.DB {
	if i == j {
		return 0
	}
	return m.mean[i*m.n+j]
}

// PathLossAt returns the instantaneous path loss PL_{i,j}(t), advancing the
// pair's Gauss–Markov fading state to time t. Calls must be made with
// non-decreasing t per pair (the discrete-event simulator guarantees this).
// The channel is reciprocal: PathLossAt(t, i, j) == PathLossAt(t, j, i).
func (m *Model) PathLossAt(t float64, i, j int) phys.DB {
	if i == j {
		return 0
	}
	ij := i*m.n + j
	p := &m.pairs[m.pairIdx[ij]]
	if dt := t - p.lastT; dt > 0 {
		r := m.rhoAt(dt)
		p.delta = float64(r.rho*p.delta) + float64(r.scale*p.fade.Norm())
		p.lastT = t
	}
	pl := m.mean[ij] + phys.DB(p.delta)
	if m.params.BlockDB > 0 {
		for p.blockUntil < t {
			p.blocked = !p.blocked
			if p.blocked {
				p.blockUntil += p.block.Exp(m.params.BlockMean)
			} else {
				p.blockUntil += p.block.Exp(m.params.ClearMean)
			}
		}
		if p.blocked {
			pl += m.params.BlockDB
		}
	}
	return pl
}

// rhoAt returns the ρ table slot of dt > 0, filling it on a miss. The slot
// is picked by a Fibonacci hash of dt's bits; the factors are computed by
// the one expression a table-free advance would use, so a hit and a miss
// give the same bits.
func (m *Model) rhoAt(dt float64) *rhoEntry {
	e := &m.rho[math.Float64bits(dt)*0x9e3779b97f4a7c15>>(64-rhoBits)]
	if e.dt != dt {
		rho := math.Exp(-dt / m.params.Tau)
		*e = rhoEntry{dt: dt, rho: rho, scale: m.params.Sigma * math.Sqrt(1-float64(rho*rho))}
	}
	return e
}

// Blocked reports whether pair {i,j} is currently in a blockage episode
// (state as of the last PathLossAt advance); used by tests.
func (m *Model) Blocked(i, j int) bool {
	return m.pairs[m.pairIndex(i, j)].blocked
}

// Deviation returns the current fading deviation of pair {i,j} without
// advancing it; used by tests and diagnostics.
func (m *Model) Deviation(i, j int) float64 {
	return m.pairs[m.pairIndex(i, j)].delta
}

// MeanMatrix returns a copy of the full mean path-loss matrix.
func (m *Model) MeanMatrix() [][]phys.DB {
	out := make([][]phys.DB, m.n)
	for i := range out {
		out[i] = make([]phys.DB, m.n)
		for j := range out[i] {
			out[i][j] = m.mean[i*m.n+j]
		}
	}
	return out
}

// MeanPL returns the mean path loss between two locations under these
// parameters — the deterministic part of the model (distance power law
// plus the NLoS body-shadowing penalty), before temporal variation and
// blockage. The Γ-robust MILP compilation uses it to state link-budget
// rows, with deviation magnitudes derived from Sigma.
func (p Params) MeanPL(a, b body.Location) phys.DB {
	return meanPathLoss(a, b, p)
}
