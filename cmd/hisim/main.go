// Command hisim simulates a single Human Intranet configuration with the
// discrete-event network simulator and prints the measured metrics —
// the per-configuration oracle of the DSE flow, exposed directly.
//
// Usage:
//
//	hisim -locs 0,1,3,6 -routing star -mac csma -tx -10
//	hisim -locs 0,1,3,5,7 -routing mesh -mac tdma -tx 0 -paper
//	hisim -locs 0,1,3,6 -routing star -mac tdma -tx 0 -faults knode=1
//	hisim -locs 0,1,3,6 -scenario "fail:6@15,link:0-3@10-30"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"hiopt/internal/body"
	"hiopt/internal/cli"
	"hiopt/internal/engine"
	"hiopt/internal/fault"
	"hiopt/internal/netsim"
	"hiopt/internal/phys"
	"hiopt/internal/report"
)

func parseLocs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad location %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	c := cli.New(flag.CommandLine, "hisim")
	fid := c.Fidelity()
	var (
		locsFlag = flag.String("locs", "0,1,3,6", "comma-separated body-location indices (0=chest ... 9=back)")
		macFlag  = flag.String("mac", "csma", "MAC protocol: csma or tdma")
		rtFlag   = flag.String("routing", "star", "routing: star or mesh")
		txFlag   = flag.Float64("tx", -10, "transmit power in dBm (-20, -10, or 0 for the CC2650)")
		perNode  = flag.Bool("nodes", false, "print per-node metrics")
		trace    = flag.String("trace", "", "write a CSV event trace of one run to this file (one worker, no -cachefile: the run exists for its side effects)")
		scenario = flag.String("scenario", "", "inject a fault scenario, e.g. \"fail:6@15,out:1@5-12,link:0-3@10-30,drain:3x100\"")
		faults   = flag.String("faults", "", "robust evaluation against a generated scenario family, e.g. \"knode=1\" or \"coord-outage\"")
		adaptive = flag.Bool("adaptive", false, "confidence-gated replication stopping in the -faults evaluation (scenarios decisively clear of -pdrmin stop early)")
		pdrMinF  = flag.Float64("pdrmin", 0.9, "reliability bound the -adaptive gate tests scenario PDRs against")
	)
	c.Parse(os.Args[1:])

	locs, err := parseLocs(*locsFlag)
	c.Check(err)

	var mk netsim.MACKind
	switch strings.ToLower(*macFlag) {
	case "csma":
		mk = netsim.CSMA
	case "tdma":
		mk = netsim.TDMA
	default:
		c.Check(fmt.Errorf("unknown MAC %q", *macFlag))
	}
	var rk netsim.RoutingKind
	switch strings.ToLower(*rtFlag) {
	case "star":
		rk = netsim.Star
	case "mesh":
		rk = netsim.Mesh
	default:
		c.Check(fmt.Errorf("unknown routing %q", *rtFlag))
	}

	cfg := netsim.DefaultConfig(locs, mk, rk, 0)
	mode := cfg.Radio.ModeByOutput(phys.DBm(*txFlag))
	if mode < 0 {
		c.Check(fmt.Errorf("radio %s has no %+g dBm mode", cfg.Radio.Name, *txFlag))
	}
	cfg.TxMode = mode
	cfg.Duration = fid.Duration
	workers := 0
	if *trace != "" {
		f, err := os.Create(*trace)
		c.Check(err)
		defer f.Close()
		cfg.Trace = f
		fid.Runs = 1     // a trace documents a single run
		workers = 1      // keep event-trace writes serial
		c.CacheFile = "" // trace runs exist for their side effects
	}

	if *scenario != "" {
		sc, err := fault.Parse(*scenario)
		c.Check(err)
		cfg.Scenario = sc
	}

	eng := c.Start(fid.Sig(), workers)
	if *faults != "" {
		var gate *netsim.Gate
		if *adaptive {
			gate = &netsim.Gate{PDRMin: *pdrMinF, Margin: 0.001}
		}
		c.Check(runRobust(os.Stdout, eng, cfg, *faults, fid.Runs, fid.Seed, gate))
		c.Close()
		return
	}

	t0 := time.Now()
	req := engine.Request{Cfg: cfg, Runs: fid.Runs, Seed: fid.Seed}
	if cfg.Trace == nil {
		req.Key = cacheKey(cfg)
	}
	res, err := eng.Evaluate(context.Background(), req)
	c.Check(err)

	names := body.Names(body.Default())
	fmt.Printf("configuration: %s\n", cfg.Label())
	fmt.Printf("simulated:     %.0f s × %d runs in %s\n", cfg.Duration, fid.Runs, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("PDR:           %s\n", report.Pct(res.PDR))
	fmt.Printf("lifetime:      %s (worst node %s)\n", report.Days(res.NLTDays), report.MW(float64(res.MaxPower)))
	fmt.Printf("traffic:       %d sent, %d delivered, %d transmissions\n", res.Sent, res.Delivered, res.TxCount)
	fmt.Printf("medium:        %d clean rx, %d corrupted, %d collisions, %d MAC drops\n",
		res.RxClean, res.RxCorrupt, res.Collisions, res.MACDrops)
	if *perNode {
		var rows [][]string
		for i, loc := range res.Locations {
			rows = append(rows, []string{
				fmt.Sprintf("%d", loc), names[loc],
				report.Pct(res.NodePDR[i]), report.MW(float64(res.NodePower[i])),
			})
		}
		fmt.Println()
		report.Table(os.Stdout, []string{"loc", "site", "PDR", "power"}, rows)
	}
	c.Close()
}

// cfgKey derives a stable 32-bit cache identity from hisim's free-form
// configuration flags (locations, MAC, routing, TX mode) — the
// counterpart of design.Point.Key() for configurations that need not
// exist in the paper's design space. FNV-1a keeps it stable across
// processes, which is what makes -cachefile warm restarts work; the
// duration/runs/seed dimensions are covered by the cache file's context
// signature.
func cfgKey(cfg netsim.Config) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint32(byte(v >> (8 * i)))
			h *= 16777619
		}
	}
	mix(uint32(len(cfg.Locations)))
	for _, loc := range cfg.Locations {
		mix(uint32(loc))
	}
	mix(uint32(cfg.MAC))
	mix(uint32(cfg.Routing))
	mix(uint32(cfg.TxMode))
	if h == 0 {
		h = 1 // zero is the engine's reserved "uncached" point key
	}
	return h
}

// cacheKey is the engine cache identity of cfg, folding in a custom
// -scenario when one is injected.
func cacheKey(cfg netsim.Config) engine.Key {
	if cfg.Scenario != nil {
		return engine.ScenarioKey(cfgKey(cfg), cfg.Scenario.Key())
	}
	return engine.PointKey(cfgKey(cfg))
}

// parseFamily builds the generated scenario family named by the -faults
// spec: "knode=K" (every K-subset of the used locations fails at a
// quarter of the horizon; the star coordinator is exempt) or
// "coord-outage" (the coordinator reboots for a quarter of the horizon).
func parseFamily(cfg netsim.Config, spec string, seed uint64) ([]*fault.Scenario, error) {
	gen := fault.ScenarioGen{Seed: seed}
	switch {
	case spec == "coord-outage":
		return []*fault.Scenario{gen.CoordinatorOutage(cfg.CoordinatorLoc, cfg.Duration)}, nil
	case strings.HasPrefix(spec, "knode="):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "knode="))
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("bad -faults spec %q: want knode=K with K >= 1", spec)
		}
		exclude := -1
		if cfg.Routing == netsim.Star {
			exclude = cfg.CoordinatorLoc
		}
		fam := gen.KNodeFailures(cfg.Locations, exclude, k, cfg.Duration)
		if len(fam) == 0 {
			return nil, fmt.Errorf("-faults %s: no %d-subsets of the failable locations", spec, k)
		}
		return fam, nil
	default:
		return nil, fmt.Errorf("unknown -faults spec %q (want knode=K or coord-outage)", spec)
	}
}

// runRobust evaluates the configuration under the generated family — the
// nominal run, then the family as one engine family call — and prints to
// w the nominal result, the per-scenario table, and the worst case. A
// non-nil gate replication-gates the scenario runs (the nominal run keeps
// its full budget; the family is never sealed, so every scenario is
// reported); the engine stats line then shows the savings. The requests
// are keyed, so with a cache file attached a repeated invocation answers
// the whole family from disk. Trace runs stay unkeyed: they exist for
// their side effects.
func runRobust(w io.Writer, eng *engine.Engine, cfg netsim.Config, spec string, runs int, seed uint64, gate *netsim.Gate) error {
	scenarios, err := parseFamily(cfg, spec, seed)
	if err != nil {
		return err
	}
	keyed := cfg.Trace == nil
	base := cfg
	base.Scenario = nil
	point := cfgKey(base)
	nomReq := engine.Request{Cfg: base, Runs: runs, Seed: seed, Label: "nominal"}
	if keyed {
		nomReq.Key = engine.PointKey(point)
	}
	fam := engine.Family{Tolerate: len(scenarios)}
	for _, sc := range scenarios {
		c := base
		c.Scenario = sc
		req := engine.Request{Cfg: c, Runs: runs, Seed: seed, Label: sc.Label()}
		if keyed {
			req.Key = engine.ScenarioKey(point, sc.Key())
		}
		fam.Reqs = append(fam.Reqs, req)
	}
	t0 := time.Now()
	if fam.Nominal, err = eng.Evaluate(context.Background(), nomReq); err != nil {
		return err
	}
	rrs, _, err := eng.EvaluateFamilies(context.Background(), []engine.Family{fam}, gate)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	fmt.Fprintf(w, "configuration: %s\n", cfg.Label())
	fmt.Fprintf(w, "simulated:     %.0f s × %d runs × %d scenarios (+nominal) in %s\n",
		cfg.Duration, runs, len(scenarios), elapsed.Round(time.Millisecond))
	printRobust(w, rrs[0])
	return nil
}

// printRobust renders a family envelope: the nominal row, one row per
// scenario, and the worst case across the scenarios.
func printRobust(w io.Writer, rr *netsim.RobustResult) {
	row := func(label string, r *netsim.Result) []string {
		return []string{label, report.Pct(r.PDR), report.Days(r.NLTDays), report.MW(float64(r.MaxPower))}
	}
	rows := [][]string{row("nominal", rr.Nominal)}
	for _, m := range rr.Scenarios {
		rows = append(rows, row(m.Scenario.Label(), m.Result))
	}
	report.Table(w, []string{"scenario", "PDR", "lifetime", "worst node"}, rows)
	fmt.Fprintf(w, "worst case:    PDR %s, lifetime %s (scenario %s)\n",
		report.Pct(rr.WorstPDR), report.Days(rr.WorstNLTDays), rr.WorstScenario)
}
