package engine

import (
	"context"

	"hiopt/internal/netsim"
)

// Family is one configuration's fault-scenario family, the unit
// EvaluateFamilies evaluates and reduces. The caller builds the requests,
// so cache keys, salts, labels and Pre hooks stay its own.
type Family struct {
	// Nominal, when non-nil, is the configuration's fault-free result: it
	// seeds the envelope the way Evaluator.EvaluateRobust's nominal run
	// does (an empty family then reports the nominal metrics as its worst
	// case). With a nil Nominal the envelope covers the scenarios alone.
	Nominal *netsim.Result
	// Reqs holds one request per scenario, in scenario order. Each
	// request's Cfg.Scenario is the scenario it evaluates.
	Reqs []Request
	// Tolerate is the number of breaching scenarios the family absorbs
	// before a gated evaluation seals it; Tolerate >= len(Reqs) never
	// seals.
	Tolerate int
}

// EvaluateFamilies evaluates fault-scenario families and reduces each to
// its worst-case envelope through netsim.RobustResult.Add, in scenario
// order. It returns the envelopes in family order and the number of
// scenarios it skipped.
//
// With a nil gate every scenario spends its full replication budget and
// all families go out as one flat batch, so each envelope equals
// Evaluator.EvaluateRobust's for the same requests. A non-nil gate is set
// as every scenario request's Adaptive gate, and a scenario breaches when
// its PDR < gate.PDRMin − gate.Margin. The families are then evaluated
// wave by wave — wave w batches the w-th scenario of every family still
// open — and a family is sealed once more than Tolerate of its scenarios
// breach: its remaining scenarios are skipped and its envelope covers the
// evaluated prefix. When no family can seal, the gated scenarios still go
// out as one flat batch. ctx (nil never cancels) cancels like
// EvaluateBatchCtx.
func (e *Engine) EvaluateFamilies(ctx context.Context, fams []Family, gate *netsim.Gate) ([]*netsim.RobustResult, int, error) {
	out := make([]*netsim.RobustResult, len(fams))
	sealing := false
	for i, f := range fams {
		rr := &netsim.RobustResult{Nominal: f.Nominal}
		if f.Nominal != nil {
			rr.WorstPDR, rr.WorstNLTDays = f.Nominal.PDR, f.Nominal.NLTDays
		}
		out[i] = rr
		sealing = sealing || (gate != nil && f.Tolerate < len(f.Reqs))
	}
	breaches := make([]int, len(fams))
	var reqs []Request
	var owner []int
	for {
		// Each open family contributes its next scenario to a sealing
		// wave, or all of its scenarios to the one flat batch.
		reqs, owner = reqs[:0], owner[:0]
		for i, f := range fams {
			next := len(out[i].Scenarios)
			if next == len(f.Reqs) || breaches[i] > f.Tolerate {
				continue
			}
			end := len(f.Reqs)
			if sealing {
				end = next + 1
			}
			for _, r := range f.Reqs[next:end] {
				r.Adaptive = gate
				reqs = append(reqs, r)
				owner = append(owner, i)
			}
		}
		if len(reqs) == 0 {
			break
		}
		res, err := e.EvaluateBatchCtx(ctx, reqs, nil)
		if err != nil {
			return nil, 0, err
		}
		for k, i := range owner {
			out[i].Add(reqs[k].Cfg.Scenario, res[k])
			if gate != nil && res[k].PDR < gate.PDRMin-gate.Margin {
				breaches[i]++
			}
		}
	}
	skipped := 0
	for i, f := range fams {
		skipped += len(f.Reqs) - len(out[i].Scenarios)
	}
	return out, skipped, nil
}
