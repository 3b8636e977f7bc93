package linexpr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestExprArithmetic(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", Continuous, 0, 10)
	y := m.NewVar("y", Continuous, 0, 10)

	e := TermOf(x, 2).Plus(TermOf(y, 3)).PlusConst(5)
	vals := []float64{1, 2}
	if got := e.Eval(vals); got != 2+6+5 {
		t.Errorf("Eval = %v, want 13", got)
	}
	e2 := e.Scale(2)
	if got := e2.Eval(vals); got != 26 {
		t.Errorf("scaled Eval = %v, want 26", got)
	}
	e3 := e.Minus(TermOf(x, 2))
	if got := e3.Eval(vals); got != 11 {
		t.Errorf("Minus Eval = %v, want 11", got)
	}
}

func TestNormalizeMergesAndDropsZeros(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", Continuous, 0, 1)
	y := m.NewVar("y", Continuous, 0, 1)
	e := TermOf(x, 2).Plus(TermOf(y, 1)).Plus(TermOf(x, -2))
	if len(e.Terms) != 1 || e.Terms[0].Var != y {
		t.Errorf("normalize kept cancelled term: %+v", e.Terms)
	}
}

func TestSumBuilder(t *testing.T) {
	m := NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	c := m.Binary("c")
	e := Sum(a, b, c)
	if got := e.Eval([]float64{1, 0, 1}); got != 2 {
		t.Errorf("Sum eval = %v, want 2", got)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate variable name should panic")
		}
	}()
	m := NewModel()
	m.Binary("n0")
	m.Binary("n0")
}

func TestEmptyDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("lo > hi should panic")
		}
	}()
	m := NewModel()
	m.NewVar("bad", Continuous, 3, 1)
}

func TestVarByName(t *testing.T) {
	m := NewModel()
	x := m.Binary("prt")
	got, ok := m.VarByName("prt")
	if !ok || got != x {
		t.Errorf("VarByName = (%v, %v), want (%v, true)", got, ok, x)
	}
	if _, ok := m.VarByName("missing"); ok {
		t.Error("VarByName found a variable that was never declared")
	}
}

func TestCompileObjectiveAndRows(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", Continuous, 0, 4)
	y := m.Binary("y")
	m.SetObjective(TermOf(x, 3).PlusTerm(y, -1).PlusConst(7), false)
	m.Add("r1", TermOf(x, 1).PlusTerm(y, 2).PlusConst(1), LE, 5)

	c := m.Compile()
	if c.NumVars != 2 {
		t.Fatalf("NumVars = %d, want 2", c.NumVars)
	}
	if c.Obj[x] != 3 || c.Obj[y] != -1 || c.ObjConst != 7 {
		t.Errorf("objective compiled wrong: %v const %v", c.Obj, c.ObjConst)
	}
	if !c.Integer[y] || c.Integer[x] {
		t.Errorf("integrality flags wrong: %v", c.Integer)
	}
	// Constant folded into RHS: x + 2y <= 4.
	if c.Rows[0].RHS != 4 {
		t.Errorf("row RHS = %v, want 4 (constant folded)", c.Rows[0].RHS)
	}
}

func TestCompileNegatesMaximization(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", Continuous, 0, 1)
	m.SetObjective(TermOf(x, 5).PlusConst(2), true)
	c := m.Compile()
	if !c.Negated || c.Obj[x] != -5 || c.ObjConst != -2 {
		t.Errorf("maximization not negated: negated=%v obj=%v const=%v", c.Negated, c.Obj, c.ObjConst)
	}
}

// enumerateBinary calls f with every assignment of the given binary vars.
func enumerateBinary(n int, f func(bits []float64)) {
	bits := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			bits[i] = float64((mask >> i) & 1)
		}
		f(bits)
	}
}

// feasibleRow reports whether x satisfies one compiled row.
func feasibleRow(r CompiledRow, x []float64) bool {
	lhs := 0.0
	for j, c := range r.Coefs {
		lhs += c * x[j]
	}
	switch r.Sense {
	case LE:
		return lhs <= r.RHS+1e-9
	case GE:
		return lhs >= r.RHS-1e-9
	default:
		return math.Abs(lhs-r.RHS) <= 1e-9
	}
}

func TestProductBBExhaustive(t *testing.T) {
	// For every (x, y) in {0,1}², the only feasible z value is x*y.
	m := NewModel()
	x := m.Binary("x")
	y := m.Binary("y")
	z := m.ProductBB("z", x, y)
	c := m.Compile()

	enumerateBinary(2, func(bits []float64) {
		for _, zv := range []float64{0, 1} {
			pt := []float64{bits[0], bits[1], zv}
			ok := true
			for _, r := range c.Rows {
				if !feasibleRow(r, pt) {
					ok = false
					break
				}
			}
			want := bits[0] * bits[1]
			if ok != (zv == want) {
				t.Errorf("x=%v y=%v z=%v: feasible=%v, want feasible iff z==%v",
					bits[0], bits[1], zv, ok, want)
			}
			_ = z
		}
	})
}

func TestProductBVForcesProduct(t *testing.T) {
	// z = b*x with x in [2, 6]: when b=1, z must equal x; when b=0, z must
	// be 0 regardless of x.
	m := NewModel()
	b := m.Binary("b")
	x := m.NewVar("x", Continuous, 2, 6)
	z := m.ProductBV("z", b, x)
	c := m.Compile()

	check := func(bv, xv, zv float64) bool {
		pt := make([]float64, 3)
		pt[b], pt[x], pt[z] = bv, xv, zv
		for _, r := range c.Rows {
			if !feasibleRow(r, pt) {
				return false
			}
		}
		return true
	}
	for _, xv := range []float64{2, 3.5, 6} {
		if !check(1, xv, xv) {
			t.Errorf("b=1 x=%v z=%v should be feasible", xv, xv)
		}
		if check(1, xv, xv+0.5) {
			t.Errorf("b=1 x=%v z=%v should be infeasible", xv, xv+0.5)
		}
		if !check(0, xv, 0) {
			t.Errorf("b=0 x=%v z=0 should be feasible", xv)
		}
		if check(0, xv, 1) {
			t.Errorf("b=0 x=%v z=1 should be infeasible", xv)
		}
	}
}

func TestProductBVPanicsOnUnboundedOperand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ProductBV with unbounded operand should panic")
		}
	}()
	m := NewModel()
	b := m.Binary("b")
	x := m.NewVar("x", Continuous, 0, math.Inf(1))
	m.ProductBV("z", b, x)
}

func TestProductBBPanicsOnNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ProductBB with continuous operand should panic")
		}
	}()
	m := NewModel()
	x := m.NewVar("x", Continuous, 0, 1)
	y := m.Binary("y")
	m.ProductBB("z", x, y)
}

func TestAddRowAndClone(t *testing.T) {
	m := NewModel()
	x := m.Binary("x")
	m.SetObjective(TermOf(x, 1), false)
	c := m.Compile()
	n0 := len(c.Rows)

	clone := c.Clone()
	c.AddRow("cut", []float64{1}, GE, 1)
	if len(clone.Rows) != n0 {
		t.Error("AddRow on original leaked into clone")
	}
	clone.Lo[0] = 1
	if c.Lo[0] != 0 {
		t.Error("bound change on clone leaked into original")
	}
}

// TestCompiledEqual: a clone is Equal to its source and hashes alike, and
// each kind of difference a reused compilation could hide — a
// coefficient, a right-hand side's sign of zero, a bound, a name, a row
// tag, an extra row — makes it unequal and moves its Hash.
func TestCompiledEqual(t *testing.T) {
	m := NewModel()
	x := m.Binary("x")
	y := m.NewVar("y", Continuous, 0, 4)
	m.SetObjective(TermOf(x, 1).PlusTerm(y, 2), false)
	m.Add("r", TermOf(x, 1).PlusTerm(y, 1), LE, 3)
	m.Add("s", TermOf(y, 1), GE, 0)
	m.Protect(1)
	c := m.Compile()
	if !c.Equal(c.Clone()) || c.Hash() != c.Clone().Hash() {
		t.Fatal("clone not Equal to its source, or hashed differently")
	}
	mutations := map[string]func(d *Compiled){
		"coef":      func(d *Compiled) { d.Rows[0].Coefs[1] = math.Nextafter(1, 2) },
		"-0 rhs":    func(d *Compiled) { d.Rows[1].RHS = math.Copysign(0, -1) },
		"bound":     func(d *Compiled) { d.Hi[1] = 5 },
		"objective": func(d *Compiled) { d.Obj[0] = 3 },
		"name":      func(d *Compiled) { d.Names[0] = "z" },
		"skip":      func(d *Compiled) { d.Rows[1].Skip = false },
		"sense":     func(d *Compiled) { d.Rows[0].Sense = GE },
		"row":       func(d *Compiled) { d.AddRow("cut", []float64{1, 0}, GE, 1) },
	}
	for name, mut := range mutations {
		d := c.Clone()
		mut(d)
		if c.Equal(d) || d.Equal(c) {
			t.Errorf("%s: mutated clone still Equal", name)
		}
		if c.Hash() == d.Hash() {
			t.Errorf("%s: mutated clone hashes like its source", name)
		}
	}
}

func TestAddExprRowFoldsConstant(t *testing.T) {
	m := NewModel()
	x := m.Binary("x")
	c := m.Compile()
	c.AddExprRow("r", TermOf(x, 2).PlusConst(3), LE, 10)
	r := c.Rows[len(c.Rows)-1]
	if r.Coefs[x] != 2 || r.RHS != 7 {
		t.Errorf("AddExprRow row = %+v, want coef 2 rhs 7", r)
	}
}

func TestStringRendering(t *testing.T) {
	m := NewModel()
	x := m.Binary("prt")
	m.SetObjective(TermOf(x, 2), false)
	m.Add("c", TermOf(x, 1), LE, 1)
	s := m.String()
	for _, want := range []string{"min", "prt", "<= 1", "binary"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestEvalLinearityProperty(t *testing.T) {
	// Eval(a+b, x) == Eval(a, x) + Eval(b, x) and Eval(k*a, x) == k*Eval(a, x).
	f := func(c1, c2, k, x0, x1 float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 100)
		}
		c1, c2, k, x0, x1 = clamp(c1), clamp(c2), clamp(k), clamp(x0), clamp(x1)
		m := NewModel()
		a := m.NewVar("a", Continuous, -100, 100)
		b := m.NewVar("b", Continuous, -100, 100)
		e1 := TermOf(a, c1).PlusConst(1)
		e2 := TermOf(b, c2).PlusConst(-2)
		x := []float64{x0, x1}
		sum := e1.Plus(e2)
		if math.Abs(sum.Eval(x)-(e1.Eval(x)+e2.Eval(x))) > 1e-9 {
			return false
		}
		return math.Abs(e1.Scale(k).Eval(x)-k*e1.Eval(x)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
