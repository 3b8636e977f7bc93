package channel

import (
	"fmt"
	"math"
	"testing"

	"hiopt/internal/body"
	"hiopt/internal/phys"
	"hiopt/internal/rng"
)

// refModel is the differential oracle for the ρ table: the same
// Gauss–Markov and blockage processes, with math.Exp evaluated on every
// advance and every stream allocated by name.
type refModel struct {
	n          int
	p          Params
	mean       [][]phys.DB
	delta      []float64
	lastT      []float64
	fade       []*rng.Stream
	blocked    []bool
	blockUntil []float64
	block      []*rng.Stream
}

func newRefModel(locs []body.Location, p Params, src *rng.Source) *refModel {
	n := len(locs)
	r := &refModel{n: n, p: p, mean: make([][]phys.DB, n)}
	for i := range r.mean {
		r.mean[i] = make([]phys.DB, n)
		for j := range r.mean[i] {
			if i != j {
				r.mean[i][j] = meanPathLoss(locs[i], locs[j], p)
			}
		}
	}
	pairs := n * (n - 1) / 2
	r.delta, r.lastT = make([]float64, pairs), make([]float64, pairs)
	r.fade, r.block = make([]*rng.Stream, pairs), make([]*rng.Stream, pairs)
	r.blocked, r.blockUntil = make([]bool, pairs), make([]float64, pairs)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := r.index(i, j)
			r.fade[k] = src.Stream(fmt.Sprintf("channel/fade/%d-%d", i, j))
			r.delta[k] = p.Sigma * r.fade[k].Norm()
			if p.BlockDB > 0 {
				r.block[k] = src.Stream(fmt.Sprintf("channel/block/%d-%d", i, j))
				r.blocked[k] = r.block[k].Float64() < p.BlockMean/(p.BlockMean+p.ClearMean)
				if r.blocked[k] {
					r.blockUntil[k] = r.block[k].Exp(p.BlockMean)
				} else {
					r.blockUntil[k] = r.block[k].Exp(p.ClearMean)
				}
			}
		}
	}
	return r
}

func (r *refModel) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*r.n-i-1)/2 + (j - i - 1)
}

func (r *refModel) pathLossAt(t float64, i, j int) phys.DB {
	k := r.index(i, j)
	if dt := t - r.lastT[k]; dt > 0 {
		rho := math.Exp(-dt / r.p.Tau)
		r.delta[k] = rho*r.delta[k] + r.p.Sigma*math.Sqrt(1-rho*rho)*r.fade[k].Norm()
		r.lastT[k] = t
	}
	pl := r.mean[i][j] + phys.DB(r.delta[k])
	if r.p.BlockDB > 0 {
		for r.blockUntil[k] < t {
			r.blocked[k] = !r.blocked[k]
			if r.blocked[k] {
				r.blockUntil[k] += r.block[k].Exp(r.p.BlockMean)
			} else {
				r.blockUntil[k] += r.block[k].Exp(r.p.ClearMean)
			}
		}
		if r.blocked[k] {
			pl += r.p.BlockDB
		}
	}
	return pl
}

// collidingDts returns count distinct Δt values that all land in the
// same ρ table slot, so each advance by one of them evicts the last.
func collidingDts(count int) []float64 {
	slot := func(dt float64) uint64 { return math.Float64bits(dt) * 0x9e3779b97f4a7c15 >> (64 - rhoBits) }
	base := 1e-3
	out := []float64{base}
	for dt := math.Nextafter(base, 1); len(out) < count; dt = math.Nextafter(dt, 1) {
		if slot(dt) == slot(base) {
			out = append(out, dt)
		}
	}
	return out
}

// TestPathLossMatchesExpReference drives one reused model (Reset across
// seeds, σ and τ), a freshly built model per run, and the math.Exp-per-
// advance reference through the same advances — thousands of distinct
// Δt values, runs of slot-colliding Δt, ties at one instant — and
// requires the returned dB, Deviation and Blocked of every pair to match
// bit for bit.
func TestPathLossMatchesExpReference(t *testing.T) {
	locs := body.Default()
	n := len(locs)
	collide := collidingDts(6)
	reused := &Model{}
	params := []Params{DefaultParams(), DefaultParams(), noBlockParams(), DefaultParams()}
	params[1].Sigma, params[1].Tau = 4, 0.25
	params[3].Tau = 2.5
	distinct := map[float64]bool{}
	for run := 0; run < 8; run++ {
		p := params[run%len(params)]
		seed := uint64(run + 1)
		reused.Reset(locs, p, rng.NewSource(seed))
		fresh := New(locs, p, rng.NewSource(seed))
		ref := newRefModel(locs, p, rng.NewSource(seed))
		g := rng.NewSource(seed).Stream("channel/differential")
		now := 0.0
		for step := 0; step < 3000; step++ {
			switch g.Intn(4) {
			case 0: // a continuous Δt: almost always a new value
				now += g.Exp(5e-3)
			case 1: // slot-aligned times, as TDMA produces
				now = math.Ceil(now/1e-3+g.Float64()*3) * 1e-3
			case 2: // a Δt that evicts its slot's last occupant
				now += collide[g.Intn(len(collide))]
			}
			// case 3 keeps now: simultaneous receptions, Δt = 0 for
			// pairs already advanced to now.
			i, j := g.Intn(n), g.Intn(n)
			if i == j {
				continue
			}
			if dt := now - ref.lastT[ref.index(i, j)]; dt > 0 {
				distinct[dt] = true
			}
			a, b, c := reused.PathLossAt(now, i, j), fresh.PathLossAt(now, i, j), ref.pathLossAt(now, i, j)
			if math.Float64bits(float64(a)) != math.Float64bits(float64(c)) ||
				math.Float64bits(float64(b)) != math.Float64bits(float64(c)) {
				t.Fatalf("run %d step %d: PathLossAt(%g, %d, %d) reused %v fresh %v, reference %v", run, step, now, i, j, a, b, c)
			}
			for x := 0; x < n; x++ {
				for y := x + 1; y < n; y++ {
					k := ref.index(x, y)
					if math.Float64bits(reused.Deviation(x, y)) != math.Float64bits(ref.delta[k]) ||
						math.Float64bits(fresh.Deviation(x, y)) != math.Float64bits(ref.delta[k]) ||
						reused.Blocked(x, y) != ref.blocked[k] || fresh.Blocked(x, y) != ref.blocked[k] {
						t.Fatalf("run %d step %d: pair %d-%d state differs from the reference", run, step, x, y)
					}
				}
			}
		}
	}
	if len(distinct) < 10*rhoSlots {
		t.Fatalf("only %d distinct Δt values exercised, want ≥ %d", len(distinct), 10*rhoSlots)
	}
}
