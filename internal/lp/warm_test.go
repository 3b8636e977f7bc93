package lp

import (
	"math"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/rng"
)

// randomBoxLP generates a random LP with finite variable boxes (the form
// Solver requires), mixed row senses, and a ~30% chance of maximization.
func randomBoxLP(seed uint64, nv, nc int) *linexpr.Compiled {
	g := rng.NewSource(seed).Stream("warmtest")
	m := linexpr.NewModel()
	ids := make([]linexpr.VarID, nv)
	for i := range ids {
		lo := g.Uniform(-5, 2)
		ids[i] = m.NewVar("", linexpr.Continuous, lo, lo+g.Uniform(0.5, 8))
	}
	for r := 0; r < nc; r++ {
		e := linexpr.Expr{}
		for _, id := range ids {
			if g.Uniform(0, 1) < 0.7 {
				e = e.PlusTerm(id, g.Uniform(-3, 3))
			}
		}
		sense := linexpr.LE
		switch {
		case g.Uniform(0, 1) < 0.2:
			sense = linexpr.GE
		case g.Uniform(0, 1) < 0.1:
			sense = linexpr.EQ
		}
		m.Add("", e, sense, g.Uniform(-4, 12))
	}
	obj := linexpr.Expr{}
	for _, id := range ids {
		obj = obj.PlusTerm(id, g.Uniform(-2, 2))
	}
	m.SetObjective(obj, g.Uniform(0, 1) < 0.3)
	return m.Compile()
}

// kernelCase names one warm-start core; the property tests below run
// identically against each, keeping the dense path a correctness oracle
// for the sparse one. "dense-bland" prices by the dual Bland rule from
// the first pivot, so the anti-cycling branch, which production reaches
// only after a degenerate stall, is checked on every solve.
type kernelCase struct {
	name string
	make func(*linexpr.Compiled) (Kernel, error)
}

func kernelCases() []kernelCase {
	return []kernelCase{
		{"dense", func(p *linexpr.Compiled) (Kernel, error) { return NewSolver(p) }},
		{"dense-bland", func(p *linexpr.Compiled) (Kernel, error) {
			s, err := NewSolver(p)
			if err == nil {
				s.blandAlways = true
			}
			return s, err
		}},
		{"sparse", func(p *linexpr.Compiled) (Kernel, error) { return NewSparseSolver(p) }},
	}
}

func wantDuals(k Kernel) {
	switch s := k.(type) {
	case *Solver:
		s.WantDuals = true
	case *SparseSolver:
		s.WantDuals = true
	}
}

// TestSolverColdMatchesLegacy cross-checks each kernel's cold start
// against the legacy two-phase primal solver on random instances: status,
// objective, and shadow prices must all agree.
func TestSolverColdMatchesLegacy(t *testing.T) {
	for _, kc := range kernelCases() {
		t.Run(kc.name, func(t *testing.T) { coldPropertyTest(t, kc) })
	}
}

func coldPropertyTest(t *testing.T, kc kernelCase) {
	agree, opt := 0, 0
	for seed := uint64(1); seed <= 400; seed++ {
		p := randomBoxLP(seed, 8, 10)
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := kc.make(p)
		if err != nil {
			t.Fatal(err)
		}
		wantDuals(s)
		got, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("seed %d: status %v, legacy %v", seed, got.Status, want.Status)
		}
		agree++
		if want.Status != Optimal {
			continue
		}
		opt++
		if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
			t.Fatalf("seed %d: obj %.12g, legacy %.12g", seed, got.Objective, want.Objective)
		}
		for i := range want.ShadowPrices {
			if math.Abs(got.ShadowPrices[i]-want.ShadowPrices[i]) > 1e-6 {
				t.Fatalf("seed %d row %d: dual %g, legacy %g", seed, i, got.ShadowPrices[i], want.ShadowPrices[i])
			}
		}
	}
	if opt < 50 {
		t.Fatalf("generator too degenerate: only %d/%d optimal", opt, agree)
	}
	t.Logf("agree=%d optimal=%d", agree, opt)
}

func TestNewSolverRejectsUnboundedVars(t *testing.T) {
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, 0, math.Inf(1))
	m.SetObjective(linexpr.Expr{}.PlusTerm(x, 1), false)
	if _, err := NewSolver(m.Compile()); err == nil {
		t.Fatal("expected ErrUnboundedVar")
	}
}

// TestSolverMutationsMatchLegacy is the warm-restart property test from
// the issue: random sequences of bound tightenings, bound reverts,
// appended cut rows, RHS changes, and row drops, where every warm
// re-solve must match a cold legacy lp.Solve on the equivalently mutated
// problem within 1e-9 — run against both the dense and the sparse core
// (DropRow compaction and SetVarBounds re-resting included).
func TestSolverMutationsMatchLegacy(t *testing.T) {
	for _, kc := range kernelCases() {
		t.Run(kc.name, func(t *testing.T) { mutationPropertyTest(t, kc) })
	}
}

func mutationPropertyTest(t *testing.T, kc kernelCase) {
	totalWarm, totalCold := 0, 0
	for seed := uint64(1); seed <= 150; seed++ {
		g := rng.NewSource(seed).Stream("warmmut")
		p := randomBoxLP(seed+5000, 6, 6)
		s, err := kc.make(p)
		if err != nil {
			t.Fatal(err)
		}
		rootLo := append([]float64(nil), p.Lo...)
		rootHi := append([]float64(nil), p.Hi...)
		curLo := append([]float64(nil), p.Lo...)
		curHi := append([]float64(nil), p.Hi...)
		dropped := make(map[int]bool)
		for step := 0; step < 40; step++ {
			op := g.Uniform(0, 1)
			switch {
			case op < 0.40: // tighten a random variable bound
				j := int(g.Uniform(0, float64(p.NumVars)))
				lo, hi := curLo[j], curHi[j]
				if g.Uniform(0, 1) < 0.5 {
					hi = lo + (hi-lo)*g.Uniform(0.2, 0.95)
				} else {
					lo = hi - (hi-lo)*g.Uniform(0.2, 0.95)
				}
				curLo[j], curHi[j] = lo, hi
				s.SetVarBounds(j, lo, hi)
			case op < 0.48: // fix a variable (lo == hi), as branching does
				j := int(g.Uniform(0, float64(p.NumVars)))
				v := curLo[j] + (curHi[j]-curLo[j])*g.Uniform(0, 1)
				curLo[j], curHi[j] = v, v
				s.SetVarBounds(j, v, v)
			case op < 0.55: // revert a variable to its root bounds
				j := int(g.Uniform(0, float64(p.NumVars)))
				curLo[j], curHi[j] = rootLo[j], rootHi[j]
				s.SetVarBounds(j, rootLo[j], rootHi[j])
			case op < 0.75: // append a cut row to the arena
				coefs := make([]float64, p.NumVars)
				for k := range coefs {
					if g.Uniform(0, 1) < 0.6 {
						coefs[k] = g.Uniform(-2, 2)
					}
				}
				sense := linexpr.LE
				if g.Uniform(0, 1) < 0.4 {
					sense = linexpr.GE
				}
				p.AddRow("", coefs, sense, g.Uniform(-3, 10))
			case op < 0.90: // retarget a random live row RHS
				i := pickLiveRow(g, len(p.Rows), dropped)
				if i < 0 {
					continue
				}
				d := g.Uniform(0, 5)
				switch p.Rows[i].Sense {
				case linexpr.GE:
					d = -d
				case linexpr.EQ:
					d = 0
				}
				nr := p.Rows[i].RHS + d
				p.Rows[i].RHS = nr
				s.SetRowRHS(i, nr)
			default: // drop a random row when its slack is basic
				i := pickLiveRow(g, len(p.Rows), dropped)
				if i < 0 {
					continue
				}
				if s.DropRow(i) {
					dropped[i] = true
				}
			}
			got, err := s.Solve()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Solve(mutatedRef(p, curLo, curHi, dropped))
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status {
				t.Fatalf("seed %d step %d: status %v, legacy %v", seed, step, got.Status, want.Status)
			}
			if want.Status != Optimal {
				continue
			}
			if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
				t.Fatalf("seed %d step %d: obj %.12g legacy %.12g", seed, step, got.Objective, want.Objective)
			}
		}
		st := s.Stats()
		totalWarm += st.WarmSolves
		totalCold += st.ColdSolves
	}
	if totalWarm <= totalCold {
		t.Fatalf("warm path barely exercised: warm=%d cold=%d", totalWarm, totalCold)
	}
	t.Logf("warm=%d cold=%d", totalWarm, totalCold)
}

func pickLiveRow(g *rng.Stream, n int, dropped map[int]bool) int {
	if n == 0 {
		return -1
	}
	i := int(g.Uniform(0, float64(n)))
	for k := 0; k < n; k++ {
		j := (i + k) % n
		if !dropped[j] {
			return j
		}
	}
	return -1
}

// mutatedRef builds the reference problem for a legacy solve: the arena
// with the test's current bounds overlaid and dropped rows removed.
func mutatedRef(p *linexpr.Compiled, lo, hi []float64, dropped map[int]bool) *linexpr.Compiled {
	ref := p.Clone()
	copy(ref.Lo, lo)
	copy(ref.Hi, hi)
	if len(dropped) > 0 {
		rows := ref.Rows[:0]
		for i := range ref.Rows {
			if !dropped[i] {
				rows = append(rows, ref.Rows[i])
			}
		}
		ref.Rows = rows
	}
	return ref
}

// TestRebuildAfterDropKeepsRowsApart drops a row whose slack is basic,
// then has the solver lose its tableau (as a poisoned solve does), gain a
// row and rebuild. Every rebuilt row must own its buffer, and the answer
// must equal a fresh solver's on the same live rows: DropRow must not
// leave a second pointer to a live row past the end of the tableau, or
// such a rebuild hands one buffer to two rows.
func TestRebuildAfterDropKeepsRowsApart(t *testing.T) {
	checked := 0
	for seed := uint64(1); seed <= 100; seed++ {
		p := randomBoxLP(seed, 6, 6)
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		// Arena row 0's slack must be basic, above the last tableau row.
		if rb := s.pos[s.n]; !s.built || rb < 0 || rb == s.m-1 {
			continue
		}
		if !s.DropRow(0) {
			t.Fatalf("seed %d: DropRow refused a basic slack", seed)
		}
		s.built = false // what a poisoned solve leaves
		coefs := make([]float64, p.NumVars)
		coefs[1] = 1
		p.AddRow("", coefs, linexpr.LE, 1e6)
		got, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.t {
			for k := i + 1; k < len(s.t); k++ {
				if &s.t[i][0] == &s.t[k][0] {
					t.Fatalf("seed %d: tableau rows %d and %d share a buffer", seed, i, k)
				}
			}
		}
		fresh, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		fresh.DropRow(0)
		want, err := fresh.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSolution(got, want); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d seeds reached the drop", checked)
	}
	t.Logf("%d seeds checked", checked)
}
