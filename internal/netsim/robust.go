package netsim

import (
	"math"
	"sort"

	"hiopt/internal/fault"
)

// ScenarioMetrics is the measured behaviour of one configuration under
// one fault scenario.
type ScenarioMetrics struct {
	// Scenario is the evaluated fault schedule.
	Scenario *fault.Scenario
	// Result is the full averaged simulation result under the scenario.
	Result *Result
	// PDR, NLTDays, and MaxPowerMW duplicate the headline metrics for
	// convenient tabulation.
	PDR        float64
	NLTDays    float64
	MaxPowerMW float64
}

// RobustResult summarizes a configuration across a fault-scenario family:
// the nominal (fault-free) result plus per-scenario metrics and the
// worst-case envelope, following the scenario-based robust design view of
// D'Andreagiovanni et al. (arXiv:1504.01356).
type RobustResult struct {
	// Nominal is the fault-free result.
	Nominal *Result
	// Scenarios holds one entry per evaluated scenario, in input order.
	Scenarios []ScenarioMetrics
	// WorstPDR and WorstNLTDays are the minima across the family (equal
	// to the nominal values when the family is empty); WorstScenario
	// labels the PDR-minimizing scenario ("" when the family is empty).
	WorstPDR      float64
	WorstNLTDays  float64
	WorstScenario string
}

// PDRQuantile returns the q-quantile of the per-scenario PDR distribution
// via the lower order statistic: q = 0 is the worst case, q → 1 the best
// scenario. With an empty family it returns the nominal PDR.
func (r *RobustResult) PDRQuantile(q float64) float64 {
	if len(r.Scenarios) == 0 {
		return r.Nominal.PDR
	}
	pdrs := make([]float64, len(r.Scenarios))
	for i, s := range r.Scenarios {
		pdrs[i] = s.PDR
	}
	sort.Float64s(pdrs)
	idx := int(math.Floor(q * float64(len(pdrs))))
	if idx >= len(pdrs) {
		idx = len(pdrs) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return pdrs[idx]
}

// EvaluateRobust measures the configuration under every scenario of the
// family (plus the nominal run), averaging `runs` repetitions per point
// exactly like RunAveraged. All runs share the same derived seeds —
// common random numbers, so metric differences between scenarios are the
// faults' doing, not sampling noise. Any Scenario already present on cfg
// is ignored in the nominal run and replaced per scenario.
func (ev *Evaluator) EvaluateRobust(cfg Config, runs int, seed uint64, scenarios []*fault.Scenario) (*RobustResult, error) {
	base := cfg
	base.Scenario = nil
	nominal, err := ev.RunAveraged(base, runs, seed)
	if err != nil {
		return nil, err
	}
	rr := &RobustResult{
		Nominal:      nominal,
		WorstPDR:     nominal.PDR,
		WorstNLTDays: nominal.NLTDays,
	}
	for _, sc := range scenarios {
		c := base
		c.Scenario = sc
		r, err := ev.RunAveraged(c, runs, seed)
		if err != nil {
			return nil, err
		}
		rr.Add(sc, r)
	}
	return rr, nil
}

// Add appends one scenario's averaged Result to the envelope, updating
// the worst-case PDR and lifetime minima. The sequential EvaluateRobust
// and the engine's family evaluation (gated or not) reduce through this
// single merge step, so they agree wherever they evaluate the same
// scenarios.
func (rr *RobustResult) Add(sc *fault.Scenario, r *Result) {
	m := ScenarioMetrics{
		Scenario:   sc,
		Result:     r,
		PDR:        r.PDR,
		NLTDays:    r.NLTDays,
		MaxPowerMW: float64(r.MaxPower),
	}
	rr.Scenarios = append(rr.Scenarios, m)
	if len(rr.Scenarios) == 1 || m.PDR < rr.WorstPDR {
		rr.WorstPDR = m.PDR
		rr.WorstScenario = sc.Label()
	}
	if len(rr.Scenarios) == 1 || m.NLTDays < rr.WorstNLTDays {
		rr.WorstNLTDays = m.NLTDays
	}
}

// EvaluateRobust is the one-shot convenience wrapper over a fresh
// Evaluator.
func EvaluateRobust(cfg Config, runs int, seed uint64, scenarios []*fault.Scenario) (*RobustResult, error) {
	return NewEvaluator().EvaluateRobust(cfg, runs, seed, scenarios)
}
