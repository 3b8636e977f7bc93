package netsim

import (
	"math"

	"hiopt/internal/phys"
)

// This file is the replication-merge API: the accumulate/finalize halves
// of RunAveraged, exported so callers that obtain per-replication Results
// in parallel (internal/engine's replication-granularity scheduler) can
// reduce them to the exact sequential answer, plus the small-sample
// confidence machinery behind adaptive replication budgets.
//
// Bit-identity contract: folding replication Results (seed, seed+1, ...)
// into the first one with Accumulate in replication order and then
// calling Finalize performs the same floating-point operations in the
// same order as Evaluator.RunAveraged, so the merged Result is
// bit-identical to the sequential one for any execution interleaving of
// the replications themselves (each replication is an independent
// simulation; only the reduction order matters).

// Accumulate folds one replication's metrics into r, which must hold the
// first replication (or a partial sum of earlier ones). Averages are
// deferred to Finalize: PDR, the per-node metrics, MaxPower, and
// MeanLatency become running sums; the latency tail percentiles take the
// pessimistic maximum across replications, as RunAveraged always has.
func (r *Result) Accumulate(rep *Result) {
	r.PDR += rep.PDR
	for i := range r.NodePDR {
		r.NodePDR[i] += rep.NodePDR[i]
		r.NodePower[i] += rep.NodePower[i]
	}
	r.MaxPower += rep.MaxPower
	r.Sent += rep.Sent
	r.Delivered += rep.Delivered
	r.TxCount += rep.TxCount
	r.RxClean += rep.RxClean
	r.RxCorrupt += rep.RxCorrupt
	r.Collisions += rep.Collisions
	r.MACDrops += rep.MACDrops
	r.Events += rep.Events
	r.MeanLatency += rep.MeanLatency
	r.P95Latency = math.Max(r.P95Latency, rep.P95Latency)
	r.MaxLatency = math.Max(r.MaxLatency, rep.MaxLatency)
	r.LatencyDropped += rep.LatencyDropped
}

// Finalize converts the accumulated sums of `runs` replications into
// averages, recomputes the lifetime from the averaged worst-node power
// against batteryJ, and estimates PDRStdDev from the per-replication PDR
// samples (in replication order; len(pdrs) must equal runs). A runs ≤ 1
// call only records the replication count: a single run is already its
// own average.
func (r *Result) Finalize(runs int, batteryJ phys.Joule, pdrs []float64) {
	if runs < 1 {
		runs = 1
	}
	r.Runs = runs
	if runs == 1 {
		return
	}
	f := 1 / float64(runs)
	r.PDR *= f
	for i := range r.NodePDR {
		r.NodePDR[i] *= f
		r.NodePower[i] = phys.MilliWatt(float64(r.NodePower[i]) * f)
	}
	r.MaxPower = phys.MilliWatt(float64(r.MaxPower) * f)
	r.NLTSeconds = phys.LifetimeSeconds(batteryJ, r.MaxPower)
	r.NLTDays = phys.Days(r.NLTSeconds)
	r.MeanLatency *= f
	var sq float64
	for _, p := range pdrs {
		d := p - r.PDR
		sq += float64(d * d)
	}
	r.PDRStdDev = math.Sqrt(sq / float64(runs-1))
}

// PDRHalfWidth returns the half-width of the two-sided confidence
// interval on the mean PDR at confidence level conf in (0, 1) — the
// Student-t small-sample interval t_{1-(1-conf)/2, n-1} · s/√n built
// from PDRStdDev and the replication count. conf ≤ 0 selects the
// conventional 0.95. With fewer than two replications there is no
// variance estimate and the half-width is +Inf (nothing can be decided
// from one sample); a zero PDRStdDev yields 0.
func (r *Result) PDRHalfWidth(conf float64) float64 {
	if r.Runs < 2 {
		return math.Inf(1)
	}
	if conf <= 0 {
		conf = 0.95
	}
	if conf >= 1 {
		return math.Inf(1)
	}
	t := tQuantile(0.5+float64(conf/2), r.Runs-1)
	return t * r.PDRStdDev / math.Sqrt(float64(r.Runs))
}

// tQuantile returns the p-quantile (p in (0, 1)) of Student's t
// distribution with df degrees of freedom. One and two degrees of
// freedom use the exact closed forms; higher counts use the
// Cornish–Fisher expansion around the normal quantile (relative error
// under ~0.1% at df = 3, shrinking rapidly with df), which is far more
// precision than a stop-early gate needs.
func tQuantile(p float64, df int) float64 {
	if df < 1 {
		df = 1
	}
	switch df {
	case 1:
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		a := 2*p - 1
		return a * math.Sqrt(2/((1-a)*(1+a)))
	}
	z := float64(math.Sqrt2 * math.Erfinv(2*p-1))
	z2 := z * z
	z3 := float64(z2 * z)
	z5 := z3 * z2
	z7 := z5 * z2
	z9 := z7 * z2
	g1 := (z3 + z) / 4
	g2 := (float64(5*z5) + float64(16*z3) + float64(3*z)) / 96
	g3 := (float64(3*z7) + float64(19*z5) + float64(17*z3) - float64(15*z)) / 384
	g4 := (float64(79*z9) + float64(776*z7) + float64(1482*z5) - float64(1920*z3) - float64(945*z)) / 92160
	v := float64(df)
	return z + g1/v + g2/(v*v) + g3/(v*v*v) + g4/(v*v*v*v)
}

// Gate is a confidence-gated early-stop rule for replication budgets: a
// configuration's replications may stop as soon as the PDR confidence
// interval lies decisively on one side of the reliability band
// [PDRMin−Margin, PDRMin+Margin]. The zero Margin degenerates to the
// bound itself; Confidence ≤ 0 selects 0.95; MinRuns < 2 is raised to 2
// (one sample has no variance estimate).
type Gate struct {
	// PDRMin is the reliability bound the decision is made against.
	PDRMin float64
	// Margin widens the bound into a band: stopping requires clearing
	// PDRMin+Margin from above or PDRMin−Margin from below, so a
	// borderline configuration keeps its full budget.
	Margin float64
	// Confidence is the two-sided CI level used for the decision.
	Confidence float64
	// MinRuns is the minimum number of replications before stopping.
	MinRuns int
}

// Decided reports whether the per-replication PDR samples already settle
// which side of the gate's band the configuration is on: the Student-t
// confidence interval of the mean (via Result.PDRHalfWidth) must lie
// entirely above PDRMin+Margin or entirely below PDRMin−Margin.
func (g Gate) Decided(pdrs []float64) bool {
	min := g.MinRuns
	if min < 2 {
		min = 2
	}
	n := len(pdrs)
	if n < min {
		return false
	}
	var sum float64
	for _, p := range pdrs {
		sum += p
	}
	mean := sum / float64(n)
	var sq float64
	for _, p := range pdrs {
		d := p - mean
		sq += float64(d * d)
	}
	stat := Result{Runs: n, PDRStdDev: math.Sqrt(sq / float64(n-1))}
	hw := stat.PDRHalfWidth(g.Confidence)
	return mean-hw > g.PDRMin+g.Margin || mean+hw < g.PDRMin-g.Margin
}
