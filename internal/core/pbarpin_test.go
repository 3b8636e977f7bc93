package core

import (
	"math"
	"testing"

	"hiopt/internal/design"
)

// TestPaperChainPBarStarBits pins the exact float bits of every round's
// P̄* on the default paper chain (2 s horizon, 1 run), together with the
// pool sizes and the total simplex pivots and branch-and-bound nodes. The
// low bits of P̄* follow the LP pivot path, so any change to the
// arithmetic of a dense kernel fails here: the warm Solver behind every
// run, and the two-phase tableau of the clone-based cold chain
// (coldChain, making the pinned rounds and the α-stop call after them).
// The perfbench chain catalog hashes the warm bits, but it lives in its
// own module, outside `go test ./...`. A deliberate change of the pivot
// path must re-pin this table.
func TestPaperChainPBarStarBits(t *testing.T) {
	type round struct {
		bits uint64
		pool int
	}
	first := []round{{0x3ff01199999999a1, 16}, {0x3ff051eb851ebdb1, 16}, {0x3ff1299999999a2f, 16}}
	cases := []struct {
		name   string
		floor  float64
		cold   bool
		rounds []round
		pivots int
		nodes  int
	}{
		{"warm/0.9", 0.9, false, first, 8522, 498},
		{"warm/0.984", 0.984, false, append(first[:3:3],
			round{0x3ff47e6666667204, 72}, round{0x3ff4beb851eb8911, 72}, round{0x3ff596666666a60d, 72},
			round{0x3ff8eb33333359a2, 132}, round{0x3ff92b851eb851cd, 132}, round{0x3ffa033333333335, 132}),
			37383, 2385},
		{"cold/0.9", 0.9, true,
			[]round{{0x3ff0119999999999, 16}, {0x3ff051eb851eb852, 16}, {0x3ff1299999999996, 16}},
			336055, 4059},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pr := design.PaperProblem(c.floor)
			pr.Duration = 2
			pr.Runs = 1
			var got []round
			var pivots, nodes int
			if c.cold {
				for i, cls := range coldChain(t, NewOptimizer(pr, Options{}), len(c.rounds)+1) {
					pivots += cls.agg.LPIterations
					nodes += cls.agg.Nodes
					if i < len(c.rounds) {
						got = append(got, round{math.Float64bits(cls.pStar), len(cls.points)})
					}
				}
			} else {
				out, err := NewOptimizer(pr, Options{}).Run()
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range out.Iterations {
					got = append(got, round{math.Float64bits(it.PBarStar), len(it.Candidates)})
				}
				pivots, nodes = out.LPIterations, out.MILPNodes
			}
			if len(got) != len(c.rounds) {
				t.Fatalf("%d rounds, pinned %d", len(got), len(c.rounds))
			}
			for i, g := range got {
				if g != c.rounds[i] {
					t.Errorf("round %d: P̄* %v (%#x) pool %d, pinned %v (%#x) pool %d", i+1,
						math.Float64frombits(g.bits), g.bits, g.pool, math.Float64frombits(c.rounds[i].bits), c.rounds[i].bits, c.rounds[i].pool)
				}
			}
			if pivots != c.pivots || nodes != c.nodes {
				t.Errorf("%d pivots / %d nodes, pinned %d / %d", pivots, nodes, c.pivots, c.nodes)
			}
		})
	}
}
