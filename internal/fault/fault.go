// Package fault defines deterministic fault-injection scenarios for the
// Human Intranet simulator: timed node hard-failures, node outage/recovery
// windows (coordinator reboots), per-link shadowing outage bursts layered
// onto the channel model, and battery-exhaustion acceleration. A Scenario
// is pure data — internal/netsim interprets it — so the same scenario
// family can screen many design candidates (robust design à la
// D'Andreagiovanni et al.): faults referencing body locations a candidate
// does not use are simply inert for that candidate.
//
// Scenarios hash to a stable 64-bit Key so optimizer caches can be keyed
// by (design point, scenario) and never conflate results obtained under
// different fault assumptions.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// NodeFailure is a permanent hard failure: the node at the given body
// location stops transmitting, receiving, and generating at time At and
// never recovers.
type NodeFailure struct {
	// Location is the body-location index of the failing node.
	Location int
	// At is the failure time in seconds.
	At float64
}

// NodeOutage is a temporary node outage (e.g. a coordinator reboot): the
// node is down during [Start, End) and resumes its protocol stack at End.
type NodeOutage struct {
	// Location is the body-location index of the affected node.
	Location int
	// Start and End bound the outage window in seconds.
	Start, End float64
}

// LinkOutage is a shadowing burst on one location pair: during
// [Start, End) the link between LocA and LocB is attenuated far below
// receiver sensitivity in both directions, on top of the nominal fading
// process. The pair is unordered; canonicalization stores LocA < LocB.
type LinkOutage struct {
	// LocA and LocB are the body-location indices of the link endpoints.
	LocA, LocB int
	// Start and End bound the burst window in seconds.
	Start, End float64
}

// BatteryDrain accelerates a node's energy consumption: the exhaustion
// check multiplies the node's accounted radio energy by Factor, so a
// sufficiently large factor kills the node mid-run once its scaled
// consumption exceeds the battery. Factor 1 models true exhaustion (which
// normal horizons never reach); values below 1 are allowed but inert in
// practice.
type BatteryDrain struct {
	// Location is the body-location index of the draining node.
	Location int
	// Factor scales the consumed energy in the exhaustion check (> 0).
	Factor float64
}

// Scenario is one deterministic fault schedule. The zero value (and nil)
// injects nothing: simulating under an empty scenario is bit-identical to
// simulating without one.
type Scenario struct {
	// Name is a human-readable label; it does not participate in Key, so
	// renaming a scenario cannot split or alias cache entries.
	Name string
	// Failures, Outages, Links, and Drains list the injected faults.
	Failures []NodeFailure
	Outages  []NodeOutage
	Links    []LinkOutage
	Drains   []BatteryDrain
}

// Empty reports whether the scenario injects no faults (nil included).
func (s *Scenario) Empty() bool {
	return s == nil ||
		len(s.Failures) == 0 && len(s.Outages) == 0 && len(s.Links) == 0 && len(s.Drains) == 0
}

// Canonicalize sorts the fault lists into a unique order and normalizes
// link endpoint order to LocA < LocB, so scenarios that differ only in
// listing order compare and hash equal.
func (s *Scenario) Canonicalize() {
	if s == nil {
		return
	}
	for i := range s.Links {
		if l := &s.Links[i]; l.LocA > l.LocB {
			l.LocA, l.LocB = l.LocB, l.LocA
		}
	}
	sort.Slice(s.Failures, func(i, j int) bool {
		a, b := s.Failures[i], s.Failures[j]
		if a.Location != b.Location {
			return a.Location < b.Location
		}
		return a.At < b.At
	})
	sort.Slice(s.Outages, func(i, j int) bool {
		a, b := s.Outages[i], s.Outages[j]
		if a.Location != b.Location {
			return a.Location < b.Location
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
	sort.Slice(s.Links, func(i, j int) bool {
		a, b := s.Links[i], s.Links[j]
		if a.LocA != b.LocA {
			return a.LocA < b.LocA
		}
		if a.LocB != b.LocB {
			return a.LocB < b.LocB
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
	sort.Slice(s.Drains, func(i, j int) bool {
		a, b := s.Drains[i], s.Drains[j]
		if a.Location != b.Location {
			return a.Location < b.Location
		}
		return a.Factor < b.Factor
	})
}

// clone returns a deep copy (nil-safe).
func (s *Scenario) clone() *Scenario {
	if s == nil {
		return nil
	}
	c := &Scenario{Name: s.Name}
	c.Failures = append([]NodeFailure(nil), s.Failures...)
	c.Outages = append([]NodeOutage(nil), s.Outages...)
	c.Links = append([]LinkOutage(nil), s.Links...)
	c.Drains = append([]BatteryDrain(nil), s.Drains...)
	return c
}

// mix64 is a SplitMix64-style avalanche step used to fold scenario fields
// into the key.
func mix64(h, v uint64) uint64 {
	h ^= v
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// CombineKeys mixes two keys (e.g. a design-point key and a scenario key)
// into one cache key. It is not commutative, so (point, scenario) and
// (scenario, point) do not collide by construction.
func CombineKeys(a, b uint64) uint64 {
	return mix64(mix64(0x243f6a8885a308d3, a), b)
}

// Key returns a stable 64-bit hash of the scenario's simulation-relevant
// content (Name excluded), invariant under fault listing order. Nil and
// empty scenarios hash to 0, matching their simulation equivalence.
func (s *Scenario) Key() uint64 {
	if s.Empty() {
		return 0
	}
	c := s.clone()
	c.Canonicalize()
	h := uint64(0x452821e638d01377)
	for _, f := range c.Failures {
		h = mix64(h, 1)
		h = mix64(h, uint64(f.Location))
		h = mix64(h, math.Float64bits(f.At))
	}
	for _, o := range c.Outages {
		h = mix64(h, 2)
		h = mix64(h, uint64(o.Location))
		h = mix64(h, math.Float64bits(o.Start))
		h = mix64(h, math.Float64bits(o.End))
	}
	for _, l := range c.Links {
		h = mix64(h, 3)
		h = mix64(h, uint64(l.LocA))
		h = mix64(h, uint64(l.LocB))
		h = mix64(h, math.Float64bits(l.Start))
		h = mix64(h, math.Float64bits(l.End))
	}
	for _, d := range c.Drains {
		h = mix64(h, 4)
		h = mix64(h, uint64(d.Location))
		h = mix64(h, math.Float64bits(d.Factor))
	}
	if h == 0 {
		h = 1 // reserve 0 for the empty scenario
	}
	return h
}

// Validate checks the scenario for structural errors (negative times or
// locations, empty windows, non-positive drain factors). Location
// *membership* is deliberately not checked: faults at locations a
// configuration does not use are inert, so one scenario family can apply
// across candidates with different topologies.
func (s *Scenario) Validate() error {
	if s == nil {
		return nil
	}
	for _, f := range s.Failures {
		if f.Location < 0 {
			return fmt.Errorf("fault: negative failure location %d", f.Location)
		}
		if f.At < 0 || math.IsNaN(f.At) {
			return fmt.Errorf("fault: invalid failure time %g", f.At)
		}
	}
	for _, o := range s.Outages {
		if o.Location < 0 {
			return fmt.Errorf("fault: negative outage location %d", o.Location)
		}
		if o.Start < 0 || math.IsNaN(o.Start) || !(o.End > o.Start) {
			return fmt.Errorf("fault: invalid outage window [%g, %g)", o.Start, o.End)
		}
	}
	for _, l := range s.Links {
		if l.LocA < 0 || l.LocB < 0 {
			return fmt.Errorf("fault: negative link endpoint in %d-%d", l.LocA, l.LocB)
		}
		if l.LocA == l.LocB {
			return fmt.Errorf("fault: link outage endpoints coincide (%d)", l.LocA)
		}
		if l.Start < 0 || math.IsNaN(l.Start) || !(l.End > l.Start) {
			return fmt.Errorf("fault: invalid link outage window [%g, %g)", l.Start, l.End)
		}
	}
	for _, d := range s.Drains {
		if d.Location < 0 {
			return fmt.Errorf("fault: negative drain location %d", d.Location)
		}
		if !(d.Factor > 0) {
			return fmt.Errorf("fault: non-positive drain factor %g", d.Factor)
		}
	}
	return nil
}

// Spec renders the scenario in the canonical textual grammar accepted by
// Parse, e.g. "fail:5@150,out:0@100-200,link:1-5@50-250,drain:3x1e6".
func (s *Scenario) Spec() string {
	if s.Empty() {
		return ""
	}
	c := s.clone()
	c.Canonicalize()
	var parts []string
	for _, f := range c.Failures {
		parts = append(parts, fmt.Sprintf("fail:%d@%s", f.Location, fnum(f.At)))
	}
	for _, o := range c.Outages {
		parts = append(parts, fmt.Sprintf("out:%d@%s-%s", o.Location, fnum(o.Start), fnum(o.End)))
	}
	for _, l := range c.Links {
		parts = append(parts, fmt.Sprintf("link:%d-%d@%s-%s", l.LocA, l.LocB, fnum(l.Start), fnum(l.End)))
	}
	for _, d := range c.Drains {
		parts = append(parts, fmt.Sprintf("drain:%dx%s", d.Location, fnum(d.Factor)))
	}
	return strings.Join(parts, ",")
}

// Label returns the scenario's display name: Name when set, the canonical
// spec otherwise, and "nominal" for the empty scenario.
func (s *Scenario) Label() string {
	if s != nil && s.Name != "" {
		return s.Name
	}
	if s.Empty() {
		return "nominal"
	}
	return s.Spec()
}

// String implements fmt.Stringer.
func (s *Scenario) String() string { return s.Label() }

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Parse builds a scenario from a comma- or semicolon-separated spec in the
// grammar emitted by Spec:
//
//	fail:LOC@T          permanent node failure at time T
//	out:LOC@T1-T2       node outage during [T1, T2)
//	link:A-B@T1-T2      link shadowing burst on pair (A, B) during [T1, T2)
//	drain:LOCxFACTOR    battery-exhaustion acceleration by FACTOR
//
// The returned scenario is canonicalized and validated; its Name is the
// original spec string.
func Parse(spec string) (*Scenario, error) {
	s := &Scenario{Name: strings.TrimSpace(spec)}
	for _, tok := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ';' }) {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		kind, rest, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("fault: %q: want KIND:SPEC", tok)
		}
		switch kind {
		case "fail":
			loc, at, err := splitIntAt(rest)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %v", tok, err)
			}
			s.Failures = append(s.Failures, NodeFailure{Location: loc, At: at})
		case "out", "outage":
			locPart, winPart, ok := strings.Cut(rest, "@")
			if !ok {
				return nil, fmt.Errorf("fault: %q: want out:LOC@T1-T2", tok)
			}
			loc, err := strconv.Atoi(locPart)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: bad location: %v", tok, err)
			}
			start, end, err := splitWindow(winPart)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %v", tok, err)
			}
			s.Outages = append(s.Outages, NodeOutage{Location: loc, Start: start, End: end})
		case "link":
			pairPart, winPart, ok := strings.Cut(rest, "@")
			if !ok {
				return nil, fmt.Errorf("fault: %q: want link:A-B@T1-T2", tok)
			}
			aPart, bPart, ok := strings.Cut(pairPart, "-")
			if !ok {
				return nil, fmt.Errorf("fault: %q: want link:A-B@T1-T2", tok)
			}
			a, errA := strconv.Atoi(aPart)
			b, errB := strconv.Atoi(bPart)
			if errA != nil || errB != nil {
				return nil, fmt.Errorf("fault: %q: bad link endpoints", tok)
			}
			start, end, err := splitWindow(winPart)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %v", tok, err)
			}
			s.Links = append(s.Links, LinkOutage{LocA: a, LocB: b, Start: start, End: end})
		case "drain":
			locPart, facPart, ok := strings.Cut(rest, "x")
			if !ok {
				return nil, fmt.Errorf("fault: %q: want drain:LOCxFACTOR", tok)
			}
			loc, err := strconv.Atoi(locPart)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: bad location: %v", tok, err)
			}
			fac, err := strconv.ParseFloat(facPart, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: bad factor: %v", tok, err)
			}
			s.Drains = append(s.Drains, BatteryDrain{Location: loc, Factor: fac})
		default:
			return nil, fmt.Errorf("fault: unknown fault kind %q in %q", kind, tok)
		}
	}
	s.Canonicalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// splitIntAt parses "LOC@T".
func splitIntAt(s string) (int, float64, error) {
	locPart, tPart, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("want LOC@T")
	}
	loc, err := strconv.Atoi(locPart)
	if err != nil {
		return 0, 0, fmt.Errorf("bad location: %v", err)
	}
	t, err := strconv.ParseFloat(tPart, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad time: %v", err)
	}
	return loc, t, nil
}

// splitWindow parses "T1-T2". A '-' right after an exponent marker is
// the exponent's sign, not the separator: Spec writes a start time of
// 0.00001 as 1e-05.
func splitWindow(s string) (float64, float64, error) {
	sep := -1
	for i := 1; i < len(s) && sep < 0; i++ {
		if s[i] == '-' && !strings.ContainsRune("eEpP", rune(s[i-1])) {
			sep = i
		}
	}
	if sep < 0 {
		return 0, 0, fmt.Errorf("want T1-T2")
	}
	aPart, bPart := s[:sep], s[sep+1:]
	a, errA := strconv.ParseFloat(aPart, 64)
	b, errB := strconv.ParseFloat(bPart, 64)
	if errA != nil || errB != nil {
		return 0, 0, fmt.Errorf("bad window %q", s)
	}
	return a, b, nil
}
