// Package design defines the Human Intranet design space of the paper's
// optimal mapping problem (§2.3 and §4.1): the topology vector ν (which of
// the M body locations carry nodes), the configuration vector χ (radio Tx
// power level, MAC protocol, routing topology), the topological
// constraints, and the coarse analytic power model of Eq. (9) used by the
// MILP candidate generator.
//
// It also owns the mapping from a design point to a runnable
// internal/netsim configuration, and the evaluation settings (simulation
// horizon, run averaging, seeds) shared by the optimizer and the
// baselines.
package design

import (
	"fmt"
	"math/bits"
	"sort"

	"hiopt/internal/body"
	"hiopt/internal/channel"
	"hiopt/internal/netsim"
	"hiopt/internal/phys"
	"hiopt/internal/radio"
)

// Point is one point of the discrete design space: (ν, χ) with the
// paper's four decision groups.
type Point struct {
	// Topology is the bitmask ν over body locations (bit i == n_i).
	Topology uint16
	// TxMode indexes the radio's transmit modes (the p1/p2/p3 selection).
	TxMode int
	// MAC is the access protocol choice P_MAC.
	MAC netsim.MACKind
	// Routing is the topology choice P_rt.
	Routing netsim.RoutingKind
}

// N returns the node count of the topology.
func (p Point) N() int { return bits.OnesCount16(p.Topology) }

// Uses reports whether location i carries a node.
func (p Point) Uses(i int) bool { return p.Topology&(1<<uint(i)) != 0 }

// Locations expands the topology bitmask into a sorted index list.
func (p Point) Locations() []int {
	var out []int
	for i := 0; i < 16; i++ {
		if p.Uses(i) {
			out = append(out, i)
		}
	}
	return out
}

// Key returns a compact unique identifier for caching.
func (p Point) Key() uint32 {
	return uint32(p.Topology) | uint32(p.TxMode)<<16 | uint32(p.MAC)<<20 | uint32(p.Routing)<<24
}

// String renders the point in the style of the paper's Fig. 3 annotations.
func (p Point) String() string {
	return fmt.Sprintf("%v %s %s tx%d", p.Locations(), p.Routing, p.MAC, p.TxMode)
}

// Constraints capture the topological requirements r_T of the mapping
// problem as reusable primitives.
type Constraints struct {
	// M is the number of candidate locations.
	M int
	// Fixed lists locations that must carry a node (the paper's n0 = 1).
	Fixed []int
	// AtLeastOneOf lists groups of which at least one location must be
	// used (hips, feet, wrists in the design example).
	AtLeastOneOf [][]int
	// Implications lists (i, j) pairs encoding "if location j is used
	// then location i must be used" (the paper's n_j − n_i ≤ 0 example).
	Implications [][2]int
	// MinNodes and MaxNodes bound N.
	MinNodes, MaxNodes int
}

// PaperConstraints returns §4.1's topology requirements: chest mandatory
// (respiration + coordination), at least one hip, one foot, and one wrist,
// and up to two further nodes for mesh connectivity (N ≤ 6).
func PaperConstraints() Constraints {
	return Constraints{
		M:     body.NumLocations,
		Fixed: []int{body.Chest},
		AtLeastOneOf: [][]int{
			{body.RightHip, body.LeftHip},
			{body.RightAnkle, body.LeftAnkle},
			{body.RightWrist, body.LeftWrist},
		},
		MinNodes: 4,
		MaxNodes: 6,
	}
}

// Satisfied reports whether a topology bitmask meets the constraints.
func (c Constraints) Satisfied(mask uint16) bool {
	for _, f := range c.Fixed {
		if mask&(1<<uint(f)) == 0 {
			return false
		}
	}
	for _, grp := range c.AtLeastOneOf {
		ok := false
		for _, i := range grp {
			if mask&(1<<uint(i)) != 0 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, im := range c.Implications {
		if mask&(1<<uint(im[1])) != 0 && mask&(1<<uint(im[0])) == 0 {
			return false
		}
	}
	n := bits.OnesCount16(mask)
	return n >= c.MinNodes && n <= c.MaxNodes
}

// Topologies enumerates every feasible topology bitmask in ascending
// order.
func (c Constraints) Topologies() []uint16 {
	var out []uint16
	for mask := uint16(0); int(mask) < 1<<uint(c.M); mask++ {
		if c.Satisfied(mask) {
			out = append(out, mask)
		}
		if mask == 1<<uint(c.M)-1 {
			break
		}
	}
	return out
}

// Problem bundles the design space with the evaluation environment: it is
// the P of Eq. (8), plus everything needed to compute its two oracles —
// the analytic power of Eq. (9) and the simulated (PDR, power) pair.
type Problem struct {
	// Constraints are the topological requirements r_T.
	Constraints Constraints
	// Radio is the PHY component library entry (CC2650 by default).
	Radio radio.Spec
	// PDRMin is the reliability bound of constraint (8d), in [0, 1].
	PDRMin float64
	// NHops is the mesh flooding bound (2 in the design example).
	NHops int

	// BaselineMW, BatteryJ, App-rate and packet size are the application
	// layer settings of §4.1.
	BaselineMW  phys.MilliWatt
	BatteryJ    phys.Joule
	RatePPS     float64
	PacketBytes int

	// Channel is the wireless environment.
	Channel channel.Params
	// BodyLocations overrides the placement geometry (nil selects
	// body.Default()). Personalized problems scale the standard geometry
	// to a subject's stature; the channel model derives its path-loss
	// matrix from these coordinates, so the scale flows into every
	// simulated link budget.
	BodyLocations []body.Location
	// Duration and Runs set the simulation fidelity (the paper's
	// T_sim = 600 s averaged over 3 runs).
	Duration float64
	Runs     int
	// Seed is the master seed; all evaluations derive from it so whole
	// optimization studies are reproducible.
	Seed uint64
	// SlotSeconds is the TDMA slot duration.
	SlotSeconds float64
}

// PaperProblem returns the §4.1 design example with the given reliability
// bound.
func PaperProblem(pdrMin float64) *Problem {
	return &Problem{
		Constraints: PaperConstraints(),
		Radio:       radio.CC2650(),
		PDRMin:      pdrMin,
		NHops:       2,
		BaselineMW:  0.1,
		BatteryJ:    netsim.CR2032EnergyJ,
		RatePPS:     10,
		PacketBytes: 100,
		Channel:     channel.DefaultParams(),
		Duration:    600,
		Runs:        3,
		Seed:        1,
		SlotSeconds: 0.001,
	}
}

// Points enumerates the full feasible design space: all feasible
// topologies crossed with every Tx mode, MAC, and routing choice. This is
// the search space of the exhaustive and simulated-annealing baselines.
func (pr *Problem) Points() []Point {
	var out []Point
	for _, mask := range pr.Constraints.Topologies() {
		for tx := range pr.Radio.TxModes {
			for _, m := range []netsim.MACKind{netsim.CSMA, netsim.TDMA} {
				for _, r := range []netsim.RoutingKind{netsim.Star, netsim.Mesh} {
					out = append(out, Point{Topology: mask, TxMode: tx, MAC: m, Routing: r})
				}
			}
		}
	}
	return out
}

// Config maps a design point to a runnable simulator configuration.
func (pr *Problem) Config(p Point) netsim.Config {
	cfg := netsim.DefaultConfig(p.Locations(), p.MAC, p.Routing, p.TxMode)
	cfg.Radio = pr.Radio
	cfg.NHops = pr.NHops
	cfg.BaselineMW = pr.BaselineMW
	cfg.BatteryJ = pr.BatteryJ
	cfg.App.RatePPS = pr.RatePPS
	cfg.App.Bytes = pr.PacketBytes
	cfg.Channel = pr.Channel
	cfg.BodyLocations = pr.BodyLocations
	cfg.Duration = pr.Duration
	cfg.SlotSeconds = pr.SlotSeconds
	return cfg
}

// Evaluate runs the accurate oracle: the averaged discrete-event
// simulation of the point.
func (pr *Problem) Evaluate(p Point) (*netsim.Result, error) {
	return pr.EvaluateWith(netsim.NewEvaluator(), p)
}

// EvaluateWith is Evaluate on a caller-supplied reusable evaluator, so an
// evaluation loop can amortize the simulation kernel across points. The
// result is bit-identical to Evaluate's.
func (pr *Problem) EvaluateWith(ev *netsim.Evaluator, p Point) (*netsim.Result, error) {
	return ev.RunAveraged(pr.Config(p), pr.Runs, pr.Seed)
}

// Tpkt returns the packet airtime 8L/BR.
func (pr *Problem) Tpkt() float64 { return pr.Radio.PacketAirtime(pr.PacketBytes) }

// NreTx returns the worst-case number of transmissions of one packet
// under controlled flooding with the given hop bound: the origin plus up
// to h generations of relays, where generation g has Π_{i<g}(N−2−i)
// copies (relays exclude the origin, the destination, and the visited
// history). For h = 2 this reduces to the paper's N²−4N+5.
func NreTx(n, hops int) int {
	total := 1
	gen := 1
	for g := 1; g <= hops; g++ {
		factor := n - 1 - g // N-2, N-3, ...
		if factor <= 0 {
			break
		}
		gen *= factor
		total += gen
	}
	return total
}

// AnalyticPower evaluates the coarse power model of Eq. (9) for a design
// point, in milliwatts:
//
//	P̄ = P_bl + φ·T_pkt·[(1−P_rt)(Tx_mW + 2(N−1)Rx_mW)
//	                    + P_rt·N_reTx·(Tx_mW + (N−1)Rx_mW)].
func (pr *Problem) AnalyticPower(p Point) float64 {
	n := float64(p.N())
	tx := float64(pr.Radio.TxModes[p.TxMode].ConsumptionMW)
	rx := float64(pr.Radio.RxConsumptionMW)
	var radioTerm float64
	if p.Routing == netsim.Star {
		radioTerm = tx + float64(2*(n-1)*rx)
	} else {
		radioTerm = float64(NreTx(p.N(), pr.NHops)) * (tx + float64((n-1)*rx))
	}
	return float64(pr.BaselineMW) + float64(pr.RatePPS*pr.Tpkt()*radioTerm)
}

// AnalyticNLTDays converts the analytic power into the corresponding
// network lifetime estimate.
func (pr *Problem) AnalyticNLTDays(p Point) float64 {
	return phys.Days(phys.LifetimeSeconds(pr.BatteryJ, phys.MilliWatt(pr.AnalyticPower(p))))
}

// SortPointsByAnalyticPower orders points by the Eq. (9) estimate
// (ascending), breaking ties by Key for determinism. Used by diagnostics
// and the annealer's initial state.
func (pr *Problem) SortPointsByAnalyticPower(pts []Point) {
	sort.SliceStable(pts, func(i, j int) bool {
		a, b := pr.AnalyticPower(pts[i]), pr.AnalyticPower(pts[j])
		if a != b {
			return a < b
		}
		return pts[i].Key() < pts[j].Key()
	})
}
