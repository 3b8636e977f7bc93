package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"hiopt/internal/core"
	"hiopt/internal/exhaustive"
)

// feasTol is the optimizer's default feasibility tolerance.
const feasTol = 0.001

// digester hashes exact float64 bit patterns, so a digest moves when any
// output bit moves.
type digester struct{ buf []byte }

func (d *digester) f(v float64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v)) }
func (d *digester) i(v int)     { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v)) }
func (d *digester) s(v string)  { d.buf = append(append(d.buf, v...), 0) }
func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}

// outcomeDigest covers an Algorithm 1 outcome's status, best design and
// its metrics, and every round's P̄* and pool size.
func outcomeDigest(out *core.Outcome) string {
	var d digester
	d.s(out.Status.String())
	if b := out.Best; b != nil {
		d.s(b.Point.String())
		d.f(b.PDR)
		d.f(b.PowerMW)
		d.f(b.NLTDays)
	}
	for _, it := range out.Iterations {
		d.f(it.PBarStar)
		d.i(len(it.Candidates))
	}
	return d.sum()
}

// sweepDigest covers all (PDR, power) bit patterns of a sweep in point
// order.
func sweepDigest(res *exhaustive.Result) string {
	all := append([]exhaustive.Entry(nil), res.All...)
	sort.Slice(all, func(a, b int) bool { return all[a].Point.Key() < all[b].Point.Key() })
	var d digester
	for _, e := range all {
		d.i(int(e.Point.Key()))
		d.f(e.PDR)
		d.f(e.PowerMW)
	}
	return d.sum()
}

// frontDigest covers a front's point set: each bound's status and best
// design with its metrics.
func frontDigest(front []core.ParetoPoint) string {
	var d digester
	for _, p := range front {
		d.f(p.PDRMin)
		d.s(p.Outcome.Status.String())
		if b := p.Best; b != nil {
			d.s(b.Point.String())
			d.f(b.PDR)
			d.f(b.PowerMW)
		}
	}
	return d.sum()
}

func bodyDigest(body []byte) string {
	h := sha256.Sum256(body)
	return hex.EncodeToString(h[:8])
}

// defaultSeed is the seed the pinned digests below were taken at.
const defaultSeed = 1

// Pinned outputs at defaultSeed: sweep digests by variant, front digests
// by op index, serve body digests by tenant index. Chain outcomes are
// pinned for every seed by the catalog instead.
var (
	pinnedSweep = map[int]string{
		0: "6d0f3feb17abccfe", 1: "0b15388960e7d072", 2: "8ce45364894b50fe", 3: "5c04e8bb8b343e05",
		4: "681d2fda8329c7c4", 5: "be1b2e6f5acf7b4a", 6: "c13cfc5166cea74e", 7: "cba5902ff8b3a5fb",
	}
	pinnedFront = map[int]string{
		0: "3fce7ffd72f6df26", 1: "49a51f15b8e01693", 2: "4765474389acb6d7", 3: "e3a5f444b0b9c97c",
		4: "1e889601a2c4823f", 5: "0e25e9a955e3d9f3", 6: "0ecaf25592abc67a", 7: "aeb5902a34667ff0",
		8: "a999edd1219f9bcf", 9: "8a915564ca3fdff1", 10: "220a72d1924915ce", 11: "0dcfa44e5e920d6b",
		12: "5ebc4d213e6303f1", 13: "fd582e53140a6f05", 14: "f9a4d4ddcc739f86", 15: "e02be99ba83db5a8",
		16: "b6b13dc85708d8b9", 17: "89fe64ec0dd77b19", 18: "f4e0fd4ef5260067", 19: "186e8ef6fe2c8659",
		20: "8d30d3ad442d250d", 21: "fc9dc60287ee43ce", 22: "6f81561f62763d65", 23: "a7a73e29fe11ac66",
		24: "7e6a3d6874911095", 25: "6057da2a18a4b330", 26: "4488f1c0c7adfbcd", 27: "b49a76f35e846c51",
		28: "a620569a604b212d", 29: "2381b7a07ed8f795", 30: "1593456ca277c482", 31: "fb4d0b030abac8bf",
		32: "dc777e4070f5217a", 33: "ffb4c2e22a81e8b1", 34: "3de196d7a1f13af2", 35: "d95bb701b6d945b0",
		36: "88edf40eb0a64d71", 37: "1953e55ba52afd1d", 38: "a8d58e816fe08f3d", 39: "ca8e69fb862f7858",
		40: "bb21004ff15f5598", 41: "f717bc56f5531817", 42: "2c44b4ad952c85a4", 43: "d727511f0e973c37",
		44: "387c15cb299e4591", 45: "a1a6e5313b4a8aec", 46: "533a34fe10e6896e", 47: "652ba12882e5c24f",
	}
	pinnedServe = map[int]string{
		0: "8623f1de10271345", 1: "8789c7f7a58fb9e7", 2: "ffa34dbf5390ef56", 3: "d1a702ac4fa145a1",
		4: "43ad6f90344e37d7", 5: "94e17830b683df88", 6: "615337d3c1b35e46", 7: "f70530bfc49348ea",
		8: "878f6f3b815021fa", 9: "2c10dc6d47f87088", 10: "e16ba5f21940bafe", 11: "4b9669a32b7b1572",
		12: "3d1f5e45671dbc67", 13: "01995b49e8a9792c", 14: "25ad4682b052ab23", 15: "66eff5640e1fe87b",
	}
)

func checkPinned(pins map[int]string, seed uint64, i int, got string) error {
	if seed != defaultSeed {
		return nil
	}
	if want, ok := pins[i]; ok && want != got {
		return fmt.Errorf("input %d: digest %s, pinned %s", i, got, want)
	}
	return nil
}

// checkChain verifies one chain op against its catalog entry (status,
// best design, digest), and that the best design meets its floor and is
// the run's incumbent.
func checkChain(e chainEntry, out *core.Outcome) error {
	if out.Best == nil {
		return fmt.Errorf("chain %+v: no feasible design", e.tenant)
	}
	if out.Best.PDR < e.Floor-feasTol {
		return fmt.Errorf("chain %+v: best PDR %v below floor", e.tenant, out.Best.PDR)
	}
	if err := checkIncumbent(out); err != nil {
		return fmt.Errorf("chain %+v: %w", e.tenant, err)
	}
	if got := outcomeDigest(out); got != e.Digest || out.Status.String() != e.Status || out.Best.Point.String() != e.Best {
		return fmt.Errorf("chain %+v: outcome %s %s digest %s, catalogued %s %s %s",
			e.tenant, out.Status, out.Best.Point, got, e.Status, e.Best, e.Digest)
	}
	return nil
}

// checkSweep verifies a sweep's invariants: every configuration simulated
// fresh once with metrics in range, and a best design that meets the floor.
func checkSweep(v tenant, res *exhaustive.Result, want int) error {
	if res.Evaluations != want || len(res.All) != want || res.Stats.Simulated != int64(want) {
		return fmt.Errorf("sweep %+v: %d evaluations, %d entries, %d simulated, want %d",
			v, res.Evaluations, len(res.All), res.Stats.Simulated, want)
	}
	for _, e := range res.All {
		if !(e.PDR >= 0 && e.PDR <= 1) || !(e.PowerMW > 0) {
			return fmt.Errorf("sweep %+v: %v has PDR %v power %v", v, e.Point, e.PDR, e.PowerMW)
		}
	}
	if res.Best != nil && res.Best.PDR < v.Floor-feasTol {
		return fmt.Errorf("sweep %+v: best PDR %v below floor", v, res.Best.PDR)
	}
	return nil
}

// checkIncumbent verifies what Algorithm 1 promises about its answer: the
// best design is feasible and the lowest-power feasible candidate it
// simulated.
func checkIncumbent(out *core.Outcome) error {
	if out.Best == nil {
		return nil
	}
	low := math.Inf(1)
	for _, it := range out.Iterations {
		for _, c := range it.Candidates {
			if c.Feasible {
				low = math.Min(low, c.PowerMW)
			}
		}
	}
	if !out.Best.Feasible || out.Best.PowerMW != low {
		return fmt.Errorf("best design %v at %v mW is not the lowest-power feasible candidate (%v mW)",
			out.Best.Point, out.Best.PowerMW, low)
	}
	return nil
}

// checkFront verifies a front's invariants: one point per bound, each best
// design at or above its bound and the incumbent of its run. Power need
// not rise with the bound: the α-bound can stop a looser bound's run
// before it reaches a design a tighter bound's run finds.
func checkFront(in frontInput, front []core.ParetoPoint) error {
	if len(front) != len(in.Bounds) {
		return fmt.Errorf("front %+v: %d points for %d bounds", in.tenant, len(front), len(in.Bounds))
	}
	for i, p := range front {
		if p.PDRMin != in.Bounds[i] || p.Best == nil {
			return fmt.Errorf("front %+v: bound %v has no design", in.tenant, in.Bounds[i])
		}
		if p.Best.PDR < p.PDRMin-feasTol {
			return fmt.Errorf("front %+v: bound %v best PDR %v", in.tenant, p.PDRMin, p.Best.PDR)
		}
		if err := checkIncumbent(p.Outcome); err != nil {
			return fmt.Errorf("front %+v: bound %v: %w", in.tenant, p.PDRMin, err)
		}
	}
	return nil
}

// serveResult is the part of a /v1/design body the checks read.
type serveResult struct {
	Status  string `json:"status"`
	Profile struct {
		PDRMin float64 `json:"pdr_min"`
	} `json:"profile"`
	Design *struct {
		Point string  `json:"point"`
		PDR   float64 `json:"pdr"`
	} `json:"design"`
	Iterations  int `json:"iterations"`
	Evaluations int `json:"evaluations"`
}

// checkServeBody verifies one response body: an optimal design at or
// above the tenant's floor.
func checkServeBody(t serveTenant, body []byte) error {
	var r serveResult
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("serve %+v: %w", t, err)
	}
	if r.Status != "optimal" || r.Design == nil {
		return fmt.Errorf("serve %+v: status %q", t, r.Status)
	}
	if r.Profile.PDRMin != t.PDRMin || r.Design.PDR < t.PDRMin-feasTol {
		return fmt.Errorf("serve %+v: design PDR %v for floor %v", t, r.Design.PDR, r.Profile.PDRMin)
	}
	return nil
}
