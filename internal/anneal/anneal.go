// Package anneal implements the simulated-annealing baseline the paper
// compares against (§4.2; reference [23] is the perrygeo/simanneal
// library, whose exponential Tmax→Tmin cooling schedule this follows).
//
// The annealer searches the same discrete design space as Algorithm 1,
// using the discrete-event simulator as its energy oracle: the energy of a
// configuration is its simulated worst-node power, plus a penalty
// proportional to any shortfall against the reliability bound. Evaluated
// configurations are cached, and the reported Evaluations count is the
// number of distinct configurations the walk visited — the cost metric the
// paper's "3× faster" claim is about — whether the engine simulated them
// fresh or answered them from a cache another layer warmed.
package anneal

import (
	"context"
	"fmt"
	"math"

	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/netsim"
	"hiopt/internal/rng"
)

// Options tune the annealer. Zero values select defaults.
type Options struct {
	// Steps is the number of annealing moves (default 400).
	Steps int
	// TMax and TMin bound the exponential cooling schedule, in energy
	// units (mW). Defaults 2.0 and 0.005.
	TMax, TMin float64
	// PenaltyMW scales the infeasibility penalty per unit of PDR
	// shortfall (default 50 mW — far above any real power level, so
	// infeasible states are only traversed, never selected).
	PenaltyMW float64
	// PenaltyBaseMW is the fixed infeasibility offset (default 5 mW).
	PenaltyBaseMW float64
	// FeasTol relaxes the reliability check like core.Options.FeasTol.
	FeasTol float64
	// Seed drives the annealer's own randomness (separate from the
	// simulation seeds inside the problem).
	Seed uint64
	// Engine, when non-nil, is used instead of a private single-worker
	// engine — sharing one engine across layers shares its result cache.
	Engine *engine.Engine
}

func (o Options) withDefaults() Options {
	if o.Steps == 0 {
		o.Steps = 400
	}
	if o.TMax == 0 {
		o.TMax = 2.0
	}
	if o.TMin == 0 {
		o.TMin = 0.005
	}
	if o.PenaltyMW == 0 {
		o.PenaltyMW = 50
	}
	if o.PenaltyBaseMW == 0 {
		o.PenaltyBaseMW = 5
	}
	if o.FeasTol == 0 {
		o.FeasTol = 0.001
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Entry is an evaluated configuration.
type Entry struct {
	Point    design.Point
	PDR      float64
	PowerMW  float64
	NLTDays  float64
	Feasible bool
	Energy   float64
}

// Outcome reports an annealing run.
type Outcome struct {
	// Best is the lowest-energy feasible entry seen (nil if the walk
	// never visited a feasible state).
	Best *Entry
	// Steps is the number of moves performed; Accepted of them were
	// taken.
	Steps, Accepted int
	// Evaluations counts the distinct configurations the walk visited and
	// Simulations the simulator runs they cost (Evaluations × max(1,
	// Runs)), whether or not a shared engine's cache answered them.
	// EvaluationsToBest is the evaluation count at the moment Best was
	// last improved — the convergence-cost metric.
	Evaluations       int
	Simulations       int
	EvaluationsToBest int
	// Trace holds the current energy after every step (diagnostics).
	Trace []float64
	// Stats snapshots the evaluation engine's counters over this run.
	Stats engine.Stats
}

// Annealer carries the search state.
type Annealer struct {
	pr   *design.Problem
	opts Options
	g    *rng.Stream
	// eng is the evaluation engine: its unified cache replaces the old
	// private entry map, so revisited states cost no fresh simulation.
	// The walk is serial, so a private engine gets a single worker.
	eng  *engine.Engine
	base engine.Stats
	// seen holds the keys of the configurations this walk has visited.
	seen map[uint32]struct{}
}

// New builds an annealer over a problem.
func New(pr *design.Problem, opts Options) *Annealer {
	o := opts.withDefaults()
	eng := o.Engine
	if eng == nil {
		eng, _ = engine.New(1) // New only fails on negative worker counts
	}
	return &Annealer{
		pr:   pr,
		opts: o,
		g:    rng.NewSource(o.Seed).Stream("anneal"),
		eng:  eng,
	}
}

// evaluate simulates (or recalls) a configuration and computes its energy.
// The entry is a pure function of the simulation result and the problem
// bound, so rebuilding it on a cache hit is deterministic.
func (a *Annealer) evaluate(p design.Point) (*Entry, error) {
	a.seen[p.Key()] = struct{}{}
	res, err := a.eng.Evaluate(context.TODO(), engine.Request{
		Cfg: a.pr.Config(p), Runs: a.pr.Runs, Seed: a.pr.Seed,
		Key: engine.PointKey(p.Key()), Label: fmt.Sprintf("%v", p),
	})
	if err != nil {
		return nil, err
	}
	e := &Entry{
		Point:    p,
		PDR:      res.PDR,
		PowerMW:  float64(res.MaxPower),
		NLTDays:  res.NLTDays,
		Feasible: res.PDR >= a.pr.PDRMin-a.opts.FeasTol,
	}
	e.Energy = e.PowerMW
	if !e.Feasible {
		shortfall := a.pr.PDRMin - res.PDR
		e.Energy += a.opts.PenaltyBaseMW + float64(a.opts.PenaltyMW*shortfall)
	}
	return e, nil
}

// neighbor proposes a random constraint-preserving move: toggle the MAC,
// toggle the routing, change the Tx level, or flip one topology bit.
func (a *Annealer) neighbor(p design.Point) design.Point {
	for attempt := 0; attempt < 64; attempt++ {
		q := p
		switch a.g.Intn(4) {
		case 0:
			if q.MAC == netsim.CSMA {
				q.MAC = netsim.TDMA
			} else {
				q.MAC = netsim.CSMA
			}
		case 1:
			if q.Routing == netsim.Star {
				q.Routing = netsim.Mesh
			} else {
				q.Routing = netsim.Star
			}
		case 2:
			k := a.g.Intn(len(a.pr.Radio.TxModes))
			if k == q.TxMode {
				continue
			}
			q.TxMode = k
		case 3:
			bit := a.g.Intn(a.pr.Constraints.M)
			q.Topology ^= 1 << uint(bit)
			if !a.pr.Constraints.Satisfied(q.Topology) {
				continue
			}
		}
		if q != p {
			return q
		}
	}
	return p
}

// initialState picks a random feasible-by-constraint starting point.
func (a *Annealer) initialState() design.Point {
	tops := a.pr.Constraints.Topologies()
	return design.Point{
		Topology: tops[a.g.Intn(len(tops))],
		TxMode:   a.g.Intn(len(a.pr.Radio.TxModes)),
		MAC:      []netsim.MACKind{netsim.CSMA, netsim.TDMA}[a.g.Intn(2)],
		Routing:  []netsim.RoutingKind{netsim.Star, netsim.Mesh}[a.g.Intn(2)],
	}
}

// Run performs the annealing walk.
func (a *Annealer) Run() (*Outcome, error) {
	if a.opts.TMax <= a.opts.TMin || a.opts.TMin <= 0 {
		return nil, fmt.Errorf("anneal: need TMax > TMin > 0, have %v, %v", a.opts.TMax, a.opts.TMin)
	}
	out := &Outcome{}
	a.base = a.eng.Stats()
	a.seen = make(map[uint32]struct{})
	cur, err := a.evaluate(a.initialState())
	if err != nil {
		return nil, err
	}
	if cur.Feasible {
		e := *cur
		out.Best = &e
		out.EvaluationsToBest = len(a.seen)
	}
	tFactor := math.Log(a.opts.TMax / a.opts.TMin)
	for step := 0; step < a.opts.Steps; step++ {
		temp := a.opts.TMax * math.Exp(-tFactor*float64(step)/float64(a.opts.Steps))
		cand, err := a.evaluate(a.neighbor(cur.Point))
		if err != nil {
			return nil, err
		}
		dE := cand.Energy - cur.Energy
		if dE <= 0 || a.g.Float64() < math.Exp(-dE/temp) {
			cur = cand
			out.Accepted++
		}
		if cur.Feasible && (out.Best == nil || cur.Energy < out.Best.Energy) {
			e := *cur
			out.Best = &e
			out.EvaluationsToBest = len(a.seen)
		}
		if cand.Feasible && (out.Best == nil || cand.Energy < out.Best.Energy) {
			e := *cand
			out.Best = &e
			out.EvaluationsToBest = len(a.seen)
		}
		out.Trace = append(out.Trace, cur.Energy)
		out.Steps++
	}
	out.Stats = a.eng.Stats().Sub(a.base)
	out.Evaluations = len(a.seen)
	out.Simulations = out.Evaluations * max(1, a.pr.Runs)
	return out, nil
}
