package fault

import (
	"fmt"
	"strings"

	"hiopt/internal/rng"
)

// ScenarioGen derives fault-scenario families deterministically from a
// master seed, so a robustness study is reproducible bit-for-bit and two
// optimizers configured alike screen against identical adversaries.
type ScenarioGen struct {
	// Seed roots the sampled (randomized) families; the enumerated
	// k-node-failure family is seed-independent.
	Seed uint64
	// FailFrac places hard failures at FailFrac × horizon (default 0.25 —
	// early enough that the degraded regime dominates the measured PDR).
	FailFrac float64
}

// DefaultFailFrac is the default hard-failure placement: a failed node
// dies at DefaultFailFrac × horizon, so it delivers only that fraction
// of its traffic. Shared with the Γ-robust MILP compilation, whose
// availability protection row charges each adversarially failed node a
// (1 − DefaultFailFrac) contribution loss — the two layers must agree
// on what "a node fails" costs or the proposer and the verifier drift.
const DefaultFailFrac = 0.25

func (g ScenarioGen) failFrac() float64 {
	if g.FailFrac <= 0 || g.FailFrac > 1 {
		return DefaultFailFrac
	}
	return g.FailFrac
}

// KNodeFailures enumerates the k-node-failure scenario family over the
// given body locations: every k-subset (in lexicographic order of the
// sorted location list) fails permanently at FailFrac × duration. A
// location equal to exclude is never failed (pass a negative value to
// include all); the caller typically excludes the star coordinator, which
// the paper exempts from lifetime concerns as the hub with larger energy
// storage. Subsets that would fail every remaining location are still
// generated — the simulator reports the resulting PDR collapse honestly.
func (g ScenarioGen) KNodeFailures(locs []int, exclude, k int, duration float64) []*Scenario {
	var pool []int
	for _, l := range locs {
		if l != exclude {
			pool = append(pool, l)
		}
	}
	if k <= 0 || k > len(pool) {
		return nil
	}
	at := g.failFrac() * duration
	var out []*Scenario
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		sc := &Scenario{}
		var names []string
		for _, i := range idx {
			sc.Failures = append(sc.Failures, NodeFailure{Location: pool[i], At: at})
			names = append(names, fmt.Sprintf("%d", pool[i]))
		}
		sc.Name = fmt.Sprintf("fail{%s}@%s", strings.Join(names, ","), fnum(at))
		out = append(out, sc)
		// Advance to the next k-combination.
		i := k - 1
		for i >= 0 && idx[i] == len(pool)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

// CoordinatorOutage builds the coordinator reboot scenario: the node at
// loc is down during [FailFrac × duration, 2 × FailFrac × duration) and
// then recovers.
func (g ScenarioGen) CoordinatorOutage(loc int, duration float64) *Scenario {
	start := g.failFrac() * duration
	end := 2 * g.failFrac() * duration
	if end > duration {
		end = duration
	}
	return &Scenario{
		Name:    fmt.Sprintf("coord-outage:%d@%s-%s", loc, fnum(start), fnum(end)),
		Outages: []NodeOutage{{Location: loc, Start: start, End: end}},
	}
}

// LinkBursts samples count scenarios of bursts shadowing outage windows
// each, on pairs drawn uniformly from the given locations, with window
// starts uniform over the horizon and lengths between 2% and 10% of it.
// Sampling is reproducible: the same (Seed, arguments) always yields the
// same family, via a named internal/rng stream.
func (g ScenarioGen) LinkBursts(locs []int, count, bursts int, duration float64) []*Scenario {
	if len(locs) < 2 || count <= 0 || bursts <= 0 {
		return nil
	}
	st := rng.NewSource(g.Seed).Stream("fault/link-bursts")
	out := make([]*Scenario, 0, count)
	for s := 0; s < count; s++ {
		sc := &Scenario{Name: fmt.Sprintf("bursts-%d", s)}
		for b := 0; b < bursts; b++ {
			i := st.Intn(len(locs))
			j := st.Intn(len(locs) - 1)
			if j >= i {
				j++
			}
			start := st.Uniform(0, float64(duration*0.9))
			length := st.Uniform(float64(duration*0.02), float64(duration*0.1))
			end := start + length
			if end > duration {
				end = duration
			}
			sc.Links = append(sc.Links, LinkOutage{LocA: locs[i], LocB: locs[j], Start: start, End: end})
		}
		sc.Canonicalize()
		out = append(out, sc)
	}
	return out
}
