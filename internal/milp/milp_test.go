package milp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/rng"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c + 5d s.t. 3a + 4b + 2c + d <= 6, binary.
	// Optimum: a + c + d (weight 6, value 22)?  b + c (weight 6, value 20),
	// a + b is weight 7 infeasible. a+c+d = 10+7+5 = 22. Check b+c+d =
	// 13+7+5=25 weight 7 infeasible. So 22.
	m := linexpr.NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	c := m.Binary("c")
	d := m.Binary("d")
	m.Add("w", linexpr.TermOf(a, 3).PlusTerm(b, 4).PlusTerm(c, 2).PlusTerm(d, 1), linexpr.LE, 6)
	m.SetObjective(linexpr.TermOf(a, 10).PlusTerm(b, 13).PlusTerm(c, 7).PlusTerm(d, 5), true)

	s, err := Solve(m.Compile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-22) > 1e-6 {
		t.Fatalf("got %v z=%v, want optimal z=22", s.Status, s.Objective)
	}
	if s.X[a] != 1 || s.X[b] != 0 || s.X[c] != 1 || s.X[d] != 1 {
		t.Errorf("solution = %v, want a=c=d=1, b=0", s.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// LP relaxation optimum is fractional; MILP must branch.
	// max x + y s.t. 2x + 2y <= 5, x,y integer in [0,2] → z = 2.
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Integer, 0, 2)
	y := m.NewVar("y", linexpr.Integer, 0, 2)
	m.Add("c", linexpr.TermOf(x, 2).PlusTerm(y, 2), linexpr.LE, 5)
	m.SetObjective(linexpr.Sum(x, y), true)

	s, err := Solve(m.Compile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-2) > 1e-6 {
		t.Fatalf("got %v z=%v, want optimal z=2", s.Status, s.Objective)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 4b + x s.t. x >= 3 - 3b, x in [0, 10], b binary.
	// b=0: x=3, z=3. b=1: x=0, z=4. Optimum 3.
	m := linexpr.NewModel()
	b := m.Binary("b")
	x := m.NewVar("x", linexpr.Continuous, 0, 10)
	m.Add("c", linexpr.TermOf(x, 1).PlusTerm(b, 3), linexpr.GE, 3)
	m.SetObjective(linexpr.TermOf(b, 4).PlusTerm(x, 1), false)

	s, err := Solve(m.Compile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-3) > 1e-6 || s.X[b] != 0 {
		t.Fatalf("got %v z=%v b=%v, want z=3 b=0", s.Status, s.Objective, s.X[b])
	}
}

func TestInfeasibleMILP(t *testing.T) {
	m := linexpr.NewModel()
	x := m.Binary("x")
	y := m.Binary("y")
	m.Add("sum2", linexpr.Sum(x, y), linexpr.GE, 2)
	m.Add("excl", linexpr.Sum(x, y), linexpr.LE, 1)
	m.SetObjective(linexpr.Sum(x, y), false)
	s, err := Solve(m.Compile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

// TestBranchingRequiredInfeasibleIntegers covers the case where the LP
// relaxation is feasible but no integer point exists.
func TestLPFeasibleButIntegerInfeasible(t *testing.T) {
	// 2x == 1 with x integer has LP solution x=0.5 but no integer solution.
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Integer, 0, 5)
	m.Add("eq", linexpr.TermOf(x, 2), linexpr.EQ, 1)
	m.SetObjective(linexpr.TermOf(x, 1), false)
	s, err := Solve(m.Compile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestSolutionsAreExactlyIntegral(t *testing.T) {
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Integer, 0, 7)
	m.Add("c", linexpr.TermOf(x, 3), linexpr.LE, 10)
	m.SetObjective(linexpr.TermOf(x, 1), true)
	s, err := Solve(m.Compile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.X[x] != 3 { // exact, not 2.9999999
		t.Errorf("x = %v, want exactly 3", s.X[x])
	}
}

func TestSolvePoolEnumeratesAllOptima(t *testing.T) {
	// min x1 + x2 + x3 s.t. x1 + x2 + x3 >= 2: three optimal solutions,
	// each with exactly two ones.
	m := linexpr.NewModel()
	v := []linexpr.VarID{m.Binary("a"), m.Binary("b"), m.Binary("c")}
	m.Add("cover", linexpr.Sum(v...), linexpr.GE, 2)
	m.SetObjective(linexpr.Sum(v...), false)

	pool, agg, err := SolvePool(m.Compile(), Options{}, 0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Status != Optimal {
		t.Fatalf("status = %v", agg.Status)
	}
	if len(pool) != 3 {
		t.Fatalf("pool size = %d, want 3", len(pool))
	}
	seen := map[[3]int]bool{}
	for _, ps := range pool {
		if math.Abs(ps.Objective-2) > 1e-6 {
			t.Errorf("pool member has objective %v, want 2", ps.Objective)
		}
		var key [3]int
		ones := 0
		for i, id := range v {
			key[i] = int(math.Round(ps.X[id]))
			ones += key[i]
		}
		if ones != 2 {
			t.Errorf("pool member %v does not have two ones", key)
		}
		if seen[key] {
			t.Errorf("duplicate pool member %v", key)
		}
		seen[key] = true
	}
}

func TestSolvePoolRespectsLimit(t *testing.T) {
	m := linexpr.NewModel()
	v := []linexpr.VarID{m.Binary("a"), m.Binary("b"), m.Binary("c"), m.Binary("d")}
	m.Add("cover", linexpr.Sum(v...), linexpr.GE, 2)
	m.SetObjective(linexpr.Sum(v...), false)
	pool, _, err := SolvePool(m.Compile(), Options{}, 2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 2 {
		t.Fatalf("pool size = %d, want 2 (limit)", len(pool))
	}
}

func TestSolvePoolSingleOptimum(t *testing.T) {
	// Distinct objective coefficients force a unique optimum.
	m := linexpr.NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	m.Add("one", linexpr.Sum(a, b), linexpr.GE, 1)
	m.SetObjective(linexpr.TermOf(a, 1).PlusTerm(b, 2), false)
	pool, _, err := SolvePool(m.Compile(), Options{}, 0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 1 || pool[0].X[a] != 1 || pool[0].X[b] != 0 {
		t.Fatalf("pool = %+v, want single solution a=1 b=0", pool)
	}
}

func TestSolvePoolInfeasible(t *testing.T) {
	m := linexpr.NewModel()
	a := m.Binary("a")
	m.Add("no", linexpr.TermOf(a, 1), linexpr.GE, 2)
	m.SetObjective(linexpr.TermOf(a, 1), false)
	pool, agg, err := SolvePool(m.Compile(), Options{}, 0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 0 || agg.Status != Infeasible {
		t.Fatalf("got pool=%d status=%v, want empty infeasible", len(pool), agg.Status)
	}
}

func TestSolvePoolRejectsGeneralIntegers(t *testing.T) {
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Integer, 0, 5)
	m.SetObjective(linexpr.TermOf(x, 1), false)
	if _, _, err := SolvePool(m.Compile(), Options{}, 0, 1e-6); err == nil {
		t.Fatal("SolvePool should reject non-binary integer variables")
	}
}

func TestIncrementalCutSteppingMimicsUpdateStep(t *testing.T) {
	// This mirrors Algorithm 1's Update(P̃, P̄ > P̄*): after adding a cut
	// that the objective must exceed the previous optimum, the solver
	// returns the next-best solution class.
	m := linexpr.NewModel()
	a := m.Binary("a") // cost 1
	b := m.Binary("b") // cost 2
	c := m.Binary("c") // cost 3
	m.Add("pick", linexpr.Sum(a, b, c), linexpr.EQ, 1)
	obj := linexpr.TermOf(a, 1).PlusTerm(b, 2).PlusTerm(c, 3)
	m.SetObjective(obj, false)

	compiled := m.Compile()
	s1, err := Solve(compiled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Objective-1) > 1e-6 {
		t.Fatalf("first solve z=%v, want 1", s1.Objective)
	}
	// Cut: objective >= 1 + eps  →  move past cost class 1.
	compiled.AddExprRow("cut1", obj, linexpr.GE, s1.Objective+0.5)
	s2, err := Solve(compiled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2.Objective-2) > 1e-6 || s2.X[b] != 1 {
		t.Fatalf("second solve z=%v b=%v, want z=2 b=1", s2.Objective, s2.X[b])
	}
	compiled.AddExprRow("cut2", obj, linexpr.GE, s2.Objective+0.5)
	s3, err := Solve(compiled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s3.Objective-3) > 1e-6 {
		t.Fatalf("third solve z=%v, want 3", s3.Objective)
	}
	compiled.AddExprRow("cut3", obj, linexpr.GE, s3.Objective+0.5)
	s4, err := Solve(compiled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s4.Status != Infeasible {
		t.Fatalf("fourth solve status=%v, want infeasible (space exhausted)", s4.Status)
	}
}

func TestCheckFeasibleDetectsViolations(t *testing.T) {
	m := linexpr.NewModel()
	x := m.Binary("x")
	y := m.NewVar("y", linexpr.Continuous, 0, 5)
	m.Add("c", linexpr.Sum(x, y), linexpr.LE, 3)
	m.SetObjective(linexpr.Sum(x, y), true)
	c := m.Compile()

	if err := CheckFeasible(c, []float64{1, 2}, 1e-9); err != nil {
		t.Errorf("feasible point rejected: %v", err)
	}
	if err := CheckFeasible(c, []float64{1, 3}, 1e-9); err == nil {
		t.Error("row violation not detected")
	}
	if err := CheckFeasible(c, []float64{0.5, 1}, 1e-9); err == nil {
		t.Error("non-integral binary not detected")
	}
	if err := CheckFeasible(c, []float64{1, 6}, 1e-9); err == nil {
		t.Error("bound violation not detected")
	}
	if err := CheckFeasible(c, []float64{1}, 1e-9); err == nil {
		t.Error("wrong dimension not detected")
	}
}

// bruteForcePool enumerates every binary point of a pure-binary problem
// and returns the minimum objective (+Inf when none is feasible) and the
// sorted keys of the points within 1e-9 of it: the optimal pool as a set.
func bruteForcePool(c *linexpr.Compiled) (float64, []string) {
	n := c.NumVars
	best := math.Inf(1)
	var keys []string
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = float64((mask >> i) & 1)
		}
		if CheckFeasible(c, x, 1e-9) != nil {
			continue
		}
		v := c.ObjConst
		for i := 0; i < n; i++ {
			v += c.Obj[i] * x[i]
		}
		switch {
		case v < best-1e-9:
			best, keys = v, append(keys[:0], keyOf(x))
		case v <= best+1e-9:
			keys = append(keys, keyOf(x))
		}
	}
	sort.Strings(keys)
	return best, keys
}

// intSource draws the integers of a random instance: an *rng.Stream for
// the fixed-seed tests, fuzzInts for the fuzz target.
type intSource interface{ Intn(n int) int }

// fuzzInts reads a fuzz input as a sequence of draws, one byte each;
// once the bytes run out every draw is 0.
type fuzzInts []byte

func (b *fuzzInts) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// randomBinaryModel draws a pure-binary minimization of 3–8 variables
// (brute force visits at most 256 points) and 1–4 LE/GE rows, with row
// coefficients in [−5, 5], right-hand sides in [−4, 4] and costs in
// [−10, 10]. The model is returned uncompiled, so a caller can protect a
// row first.
func randomBinaryModel(g intSource) *linexpr.Model {
	n := 3 + g.Intn(6)
	rows := 1 + g.Intn(4)
	m := linexpr.NewModel()
	ids := make([]linexpr.VarID, n)
	for i := range ids {
		ids[i] = m.Binary("")
	}
	for r := 0; r < rows; r++ {
		e := linexpr.Expr{}
		for _, id := range ids {
			e = e.PlusTerm(id, float64(g.Intn(11)-5))
		}
		sense := []linexpr.Sense{linexpr.LE, linexpr.GE}[g.Intn(2)]
		m.Add("", e, sense, float64(g.Intn(9)-4))
	}
	obj := linexpr.Expr{}
	for _, id := range ids {
		obj = obj.PlusTerm(id, float64(g.Intn(21)-10))
	}
	m.SetObjective(obj, false)
	return m
}

// TestRandomBinaryProblemsMatchBruteForce is the core correctness property:
// on random pure-binary MILPs the branch-and-bound optimum equals the
// brute-force optimum.
func TestRandomBinaryProblemsMatchBruteForce(t *testing.T) {
	g := rng.NewSource(555).Stream("milp")
	for trial := 0; trial < 80; trial++ {
		c := randomBinaryModel(g).Compile()
		s, err := Solve(c, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, optima := bruteForcePool(c)
		if len(optima) == 0 {
			if s.Status != Infeasible {
				t.Fatalf("trial %d: solver says %v but brute force finds no point", trial, s.Status)
			}
			continue
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: solver says %v but brute force finds optimum %v", trial, s.Status, want)
		}
		if math.Abs(s.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: solver z=%v, brute force z=%v", trial, s.Objective, want)
		}
		if err := CheckFeasible(c, s.X, 1e-6); err != nil {
			t.Fatalf("trial %d: returned point infeasible: %v", trial, err)
		}
	}
}

// checkPool requires a complete pool call to return exactly the
// brute-force optimal pool: the same status, the same optimum and the
// same point set, each point once.
func checkPool(pool []PoolSolution, agg *Solution, best float64, want []string) error {
	if len(want) == 0 {
		if agg.Status != Infeasible || len(pool) != 0 {
			return fmt.Errorf("status %v with %d members, brute force finds no point", agg.Status, len(pool))
		}
		return nil
	}
	if agg.Status != Optimal {
		return fmt.Errorf("status %v, brute force optimum %v", agg.Status, best)
	}
	if math.Abs(agg.Objective-best) > 1e-6 {
		return fmt.Errorf("objective %v, brute force %v", agg.Objective, best)
	}
	got := make([]string, len(pool))
	for i, ps := range pool {
		got[i] = keyOf(ps.X)
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		return fmt.Errorf("pool %v, brute force %v", got, want)
	}
	return nil
}

// FuzzRandomBinaryMILP is the differential target for the warm MILP
// stack. The input bytes draw a random binary MILP (randomBinaryModel)
// and a second right-hand side for its first row, which is protected so
// presolve leaves it alone. On each LP kernel, with the sequential
// enumerator and with box-partitioned dives, a State (which presolves
// the arena) runs a complete SolvePool, then retargets the row with
// SetRowRHS and runs another on the same warm state. Each pool must equal
// the brute-force optimal pool as a set. Seeds are in
// testdata/fuzz/FuzzRandomBinaryMILP; run
//
//	go test -run=NONE -fuzz=FuzzRandomBinaryMILP -fuzztime=30s ./internal/milp
//
// to search beyond them.
func FuzzRandomBinaryMILP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzInts(data)
		m := randomBinaryModel(&g)
		m.Protect(0)
		c := m.Compile()
		retarget := c.Clone()
		retarget.Rows[0].RHS = float64(g.Intn(9) - 4)
		best, want := bruteForcePool(c)
		best2, want2 := bruteForcePool(retarget)
		for _, opt := range []Options{{DenseLP: true}, {SparseLP: true}, {DenseLP: true, Workers: 1}, {SparseLP: true, Workers: 2}} {
			st := NewState(c.Clone(), opt)
			if st.Legacy() {
				t.Fatalf("%+v: state fell back to the clone path", opt)
			}
			pool, agg, err := st.SolvePool(0, 1e-6)
			if err == nil {
				err = checkPool(pool, agg, best, want)
			}
			if err != nil {
				t.Fatalf("%+v: %v", opt, err)
			}
			st.SetRowRHS(0, retarget.Rows[0].RHS)
			pool, agg, err = st.SolvePool(0, 1e-6)
			if err == nil {
				err = checkPool(pool, agg, best2, want2)
			}
			if err != nil {
				t.Fatalf("%+v, row 0 retargeted to %g: %v", opt, retarget.Rows[0].RHS, err)
			}
		}
	})
}

// TestRandomPoolCompleteness checks pool enumeration against brute force on
// small random instances: the pool must contain exactly the optimal points.
func TestRandomPoolCompleteness(t *testing.T) {
	g := rng.NewSource(777).Stream("pool")
	for trial := 0; trial < 40; trial++ {
		n := 3 + g.Intn(3) // ≤ 5 binaries
		m := linexpr.NewModel()
		ids := make([]linexpr.VarID, n)
		for i := range ids {
			ids[i] = m.Binary("")
		}
		e := linexpr.Sum(ids...)
		m.Add("cover", e, linexpr.GE, float64(1+g.Intn(n)))
		obj := linexpr.Expr{}
		for _, id := range ids {
			obj = obj.PlusTerm(id, float64(1+g.Intn(3))) // small positive costs → ties common
		}
		m.SetObjective(obj, false)

		c := m.Compile()
		pool, agg, err := SolvePool(c, Options{}, 0, 1e-6)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best, want := bruteForcePool(c)
		if err := checkPool(pool, agg, best, want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func keyOf(x []float64) string {
	b := make([]byte, len(x))
	for i, v := range x {
		if v > 0.5 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded", NodeLimit: "node-limit"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
