// Package hiopt is an open-source reproduction of "Optimized Design of a
// Human Intranet Network" (Moin, Nuzzo, Sangiovanni-Vincentelli, Rabaey,
// DAC 2017): a design-space-exploration framework for wireless body area
// networks that couples a MILP candidate generator with an accurate
// discrete-event network simulator.
//
// The package is a façade over the implementation packages:
//
//   - design-space definition and the Eq. (9) analytic power model
//     (internal/design),
//   - the Algorithm 1 optimizer (internal/core) over a from-scratch
//     simplex/branch-and-bound MILP stack (internal/lp, internal/milp),
//   - the Castalia-equivalent WBAN simulator (internal/netsim and the
//     layer packages under it),
//   - the exhaustive and simulated-annealing baselines
//     (internal/exhaustive, internal/anneal).
//
// Quick start:
//
//	problem := hiopt.NewPaperProblem(0.90) // PDR ≥ 90%
//	outcome, err := hiopt.Optimize(problem, hiopt.OptimizerOptions{})
//	if err != nil { ... }
//	fmt.Println(outcome.Best.Point, outcome.Best.NLTDays)
//
// See the examples/ directory for runnable scenarios and EXPERIMENTS.md
// for the paper-versus-measured record of every table and figure.
package hiopt

import (
	"io"

	"hiopt/internal/anneal"
	"hiopt/internal/body"
	"hiopt/internal/channel"
	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/exhaustive"
	"hiopt/internal/fault"
	"hiopt/internal/netsim"
	"hiopt/internal/phys"
	"hiopt/internal/radio"
)

// Core design-space and optimization types.
type (
	// Problem is the optimal mapping problem P of Eq. (8): design space,
	// constraints, reliability bound, and evaluation settings.
	Problem = design.Problem
	// Point is one design-space point (ν, χ).
	Point = design.Point
	// Constraints are the topological requirements r_T.
	Constraints = design.Constraints
	// OptimizerOptions tune Algorithm 1.
	OptimizerOptions = core.Options
	// Outcome is an Algorithm 1 result.
	Outcome = core.Outcome
	// Candidate is one simulated configuration with metrics.
	Candidate = core.Candidate
	// RobustOptions configure worst-case screening against a fault-scenario
	// family inside Algorithm 1 (OptimizerOptions.Robust).
	RobustOptions = core.RobustOptions
)

// Fault-injection and robust-evaluation types.
type (
	// FaultScenario is one deterministic fault schedule (node failures,
	// outages, link shadowing bursts, battery drains) attachable to a
	// SimConfig; the zero value injects nothing.
	FaultScenario = fault.Scenario
	// ScenarioGen derives deterministic fault-scenario families (k-node
	// failures, coordinator outages, sampled link bursts) from a seed.
	ScenarioGen = fault.ScenarioGen
	// RobustResult is a configuration's measured envelope across a
	// scenario family: nominal, per-scenario, and worst-case metrics.
	RobustResult = netsim.RobustResult
)

// Simulator-facing types.
type (
	// SimConfig fully describes one simulated network.
	SimConfig = netsim.Config
	// SimResult carries the measured metrics of a run.
	SimResult = netsim.Result
	// ChannelParams parametrizes the body-channel model.
	ChannelParams = channel.Params
	// RadioSpec is a PHY component library entry.
	RadioSpec = radio.Spec
	// BodyLocation is a candidate on-body node placement.
	BodyLocation = body.Location
)

// Evaluation-engine types.
type (
	// Engine is the unified evaluation service behind every search layer:
	// a fixed worker pool over reusable simulation kernels with a
	// lock-striped (point, fidelity, scenario) result cache, in-flight
	// deduplication, and an optional persistent tier
	// (Engine.AttachCacheFile / SaveCache / LoadCache). Share one engine
	// across Optimize, ExhaustiveSearch, and Anneal (via their
	// Options.Engine fields) to share its cache.
	Engine = engine.Engine
	// EngineStats are an engine's observability counters (submitted,
	// simulated, cache hits, dedup hits, disk hits, per-fidelity
	// simulated seconds).
	EngineStats = engine.Stats
)

// NewEngine builds an evaluation engine with the given worker-pool size
// (0 selects GOMAXPROCS; negative counts are rejected).
func NewEngine(workers int) (*Engine, error) { return engine.New(workers) }

// Baseline types.
type (
	// ExhaustiveResult is a brute-force search outcome.
	ExhaustiveResult = exhaustive.Result
	// ExhaustiveOptions tune the brute-force search.
	ExhaustiveOptions = exhaustive.Options
	// AnnealOptions tune the simulated-annealing baseline.
	AnnealOptions = anneal.Options
	// AnnealOutcome is a simulated-annealing result.
	AnnealOutcome = anneal.Outcome
)

// Protocol selections (the paper's P_MAC and P_rt binaries).
const (
	CSMA = netsim.CSMA
	TDMA = netsim.TDMA
	Star = netsim.Star
	Mesh = netsim.Mesh
)

// NewPaperProblem returns the paper's §4.1 design example with the given
// reliability bound PDRMin in [0, 1]: ten candidate body locations, chest
// coordinator, CC2650 radio, 100-byte packets at 10 packets/s, CR2032
// batteries, T_sim = 600 s averaged over 3 runs.
func NewPaperProblem(pdrMin float64) *Problem {
	return design.PaperProblem(pdrMin)
}

// Optimize runs the paper's Algorithm 1 — the MILP-plus-simulation
// coordination loop — on a problem.
func Optimize(pr *Problem, opts OptimizerOptions) (*Outcome, error) {
	return core.NewOptimizer(pr, opts).Run()
}

// ParetoPoint is one point of the reliability–lifetime trade-off front.
type ParetoPoint = core.ParetoPoint

// ParetoFront sweeps Algorithm 1 across reliability bounds (nil selects
// 50%..100%) and returns the lifetime-versus-reliability trade-off curve,
// sharing one simulation cache and one record of solved MILP power
// classes across the sweep.
func ParetoFront(pr *Problem, bounds []float64, opts OptimizerOptions) ([]ParetoPoint, error) {
	return core.ParetoFront(pr, bounds, opts)
}

// Simulate runs a single discrete-event simulation of a network
// configuration with the given master seed.
func Simulate(cfg SimConfig, seed uint64) (*SimResult, error) {
	return netsim.Run(cfg, seed)
}

// SimulateAveraged runs a configuration `runs` times with derived seeds
// and averages the metrics, as the paper does (3 runs).
func SimulateAveraged(cfg SimConfig, runs int, seed uint64) (*SimResult, error) {
	return netsim.RunAveraged(cfg, runs, seed)
}

// ParseFaultScenario builds a fault scenario from its textual spec, e.g.
// "fail:6@150,out:0@100-200,link:1-5@50-250,drain:3x1e6".
func ParseFaultScenario(spec string) (*FaultScenario, error) {
	return fault.Parse(spec)
}

// SimulateRobust measures a configuration under every scenario of a fault
// family (plus the fault-free nominal run) with common random numbers and
// returns the per-scenario metrics and worst-case envelope.
func SimulateRobust(cfg SimConfig, runs int, seed uint64, scenarios []*FaultScenario) (*RobustResult, error) {
	return netsim.EvaluateRobust(cfg, runs, seed, scenarios)
}

// DefaultSimConfig assembles the design-example configuration around a
// topology (body-location indices) and protocol choices; txMode indexes
// the radio's power modes (0 = lowest).
func DefaultSimConfig(locations []int, mac netsim.MACKind, routing netsim.RoutingKind, txMode int) SimConfig {
	return netsim.DefaultConfig(locations, mac, routing, txMode)
}

// ExhaustiveSearch simulates every feasible configuration of the problem
// (the baseline behind the paper's simulation-reduction claim).
func ExhaustiveSearch(pr *Problem, opts ExhaustiveOptions) (*ExhaustiveResult, error) {
	return exhaustive.Search(pr, opts)
}

// Anneal runs the simulated-annealing baseline (the paper's
// general-purpose comparison method [23]).
func Anneal(pr *Problem, opts AnnealOptions) (*AnnealOutcome, error) {
	return anneal.New(pr, opts).Run()
}

// RadioLibrary returns the PHY component library (the paper's CC2650
// first).
func RadioLibrary() []RadioSpec { return radio.Library() }

// BodyLocations returns the ten candidate placements of the design
// example in paper index order.
func BodyLocations() []BodyLocation { return body.Default() }

// DefaultChannelParams returns the calibrated body-channel parameters.
func DefaultChannelParams() ChannelParams { return channel.DefaultParams() }

// LoadChannelMatrixCSV parses a measured mean path-loss matrix (dB, CSV,
// one row per body location) for use as SimConfig.ChannelMatrix — the
// hook for replacing the synthetic channel with real campaign data.
func LoadChannelMatrixCSV(r io.Reader) ([][]phys.DB, error) {
	return channel.LoadMatrixCSV(r)
}
