// Package linexpr is a small mixed-integer linear modeling layer: the
// PuLP-equivalent in this reproduction. It lets the DSE core state the
// Human Intranet mapping problem declaratively — binary placement and
// protocol-selection variables, topological constraints, and the Eq. (9)
// power objective — and compiles the model to the matrix form consumed by
// the internal/lp and internal/milp solvers.
//
// Besides plain linear constraints it provides exact linearizations of the
// non-linear products that appear in the paper's power model: products of
// two binaries and products of a binary with a bounded variable.
package linexpr

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// VarID identifies a variable within one Model.
type VarID int

// Kind classifies a decision variable.
type Kind int

const (
	// Continuous variables range over [Lo, Hi] ⊂ ℝ.
	Continuous Kind = iota
	// Binary variables take values in {0, 1}.
	Binary
	// Integer variables take integer values in [Lo, Hi].
	Integer
)

func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Binary:
		return "binary"
	case Integer:
		return "integer"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Var describes one decision variable.
type Var struct {
	ID   VarID
	Name string
	Kind Kind
	Lo   float64
	Hi   float64
}

// Term is one coefficient–variable product inside an expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Expr is an affine expression: sum of terms plus a constant.
type Expr struct {
	Terms []Term
	Const float64
}

// NewExpr returns an expression consisting of just a constant.
func NewExpr(c float64) Expr { return Expr{Const: c} }

// TermOf returns the expression coef*v.
func TermOf(v VarID, coef float64) Expr {
	return Expr{Terms: []Term{{Var: v, Coef: coef}}}
}

// Plus returns e + f without modifying either operand.
func (e Expr) Plus(f Expr) Expr {
	out := Expr{Const: e.Const + f.Const}
	out.Terms = append(out.Terms, e.Terms...)
	out.Terms = append(out.Terms, f.Terms...)
	return out.normalize()
}

// PlusTerm returns e + coef*v.
func (e Expr) PlusTerm(v VarID, coef float64) Expr {
	return e.Plus(TermOf(v, coef))
}

// PlusConst returns e + c.
func (e Expr) PlusConst(c float64) Expr {
	out := e.clone()
	out.Const += c
	return out
}

// Minus returns e - f.
func (e Expr) Minus(f Expr) Expr {
	return e.Plus(f.Scale(-1))
}

// Scale returns k*e.
func (e Expr) Scale(k float64) Expr {
	out := Expr{Const: e.Const * k}
	out.Terms = make([]Term, len(e.Terms))
	for i, t := range e.Terms {
		out.Terms[i] = Term{Var: t.Var, Coef: t.Coef * k}
	}
	return out
}

func (e Expr) clone() Expr {
	out := Expr{Const: e.Const, Terms: make([]Term, len(e.Terms))}
	copy(out.Terms, e.Terms)
	return out
}

// normalize merges duplicate variables and drops zero coefficients, keeping
// terms sorted by variable ID so expression construction order does not
// leak into solver input.
func (e Expr) normalize() Expr {
	if len(e.Terms) == 0 {
		return e
	}
	sort.SliceStable(e.Terms, func(i, j int) bool { return e.Terms[i].Var < e.Terms[j].Var })
	out := Expr{Const: e.Const}
	for _, t := range e.Terms {
		n := len(out.Terms)
		if n > 0 && out.Terms[n-1].Var == t.Var {
			out.Terms[n-1].Coef += t.Coef
		} else {
			out.Terms = append(out.Terms, t)
		}
	}
	// Drop exact zeros introduced by cancellation.
	kept := out.Terms[:0]
	for _, t := range out.Terms {
		if t.Coef != 0 {
			kept = append(kept, t)
		}
	}
	out.Terms = kept
	return out
}

// Eval computes the value of the expression under the assignment x, which
// must cover every variable referenced by the expression.
func (e Expr) Eval(x []float64) float64 {
	v := e.Const
	for _, t := range e.Terms {
		v += t.Coef * x[t.Var]
	}
	return v
}

// Sum returns the sum of unit terms over the given variables.
func Sum(vars ...VarID) Expr {
	e := Expr{}
	for _, v := range vars {
		e.Terms = append(e.Terms, Term{Var: v, Coef: 1})
	}
	return e.normalize()
}

// Sense is the direction of a constraint relation.
type Sense int

const (
	// LE is "less than or equal".
	LE Sense = iota
	// GE is "greater than or equal".
	GE
	// EQ is "equal".
	EQ
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Constraint is a linear relation Expr Sense RHS. The expression's constant
// part is folded into the right-hand side at compile time.
type Constraint struct {
	Name  string
	Expr  Expr
	Sense Sense
	RHS   float64
}

// Model accumulates variables, constraints, and an objective.
type Model struct {
	vars []Var
	cons []Constraint
	obj  Expr
	// maximize records the caller's stated direction; compilation always
	// emits a minimization problem.
	maximize bool
	names    map[string]VarID
	// protected lists constraint indices whose compiled rows carry the
	// Skip tag (robust protection rows — see AddRobust/Protect).
	protected []int
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{names: make(map[string]VarID)}
}

// NumVars returns the number of variables declared so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// Var returns the descriptor of v.
func (m *Model) Var(v VarID) Var { return m.vars[v] }

// VarByName looks a variable up by its name.
func (m *Model) VarByName(name string) (VarID, bool) {
	id, ok := m.names[name]
	return id, ok
}

// NewVar declares a variable. Names must be unique within a model; an empty
// name is replaced by a positional one.
func (m *Model) NewVar(name string, kind Kind, lo, hi float64) VarID {
	if name == "" {
		name = fmt.Sprintf("x%d", len(m.vars))
	}
	if _, dup := m.names[name]; dup {
		panic(fmt.Sprintf("linexpr: duplicate variable name %q", name))
	}
	if kind == Binary {
		lo, hi = 0, 1
	}
	if lo > hi {
		panic(fmt.Sprintf("linexpr: variable %q has empty domain [%g, %g]", name, lo, hi))
	}
	id := VarID(len(m.vars))
	m.vars = append(m.vars, Var{ID: id, Name: name, Kind: kind, Lo: lo, Hi: hi})
	m.names[name] = id
	return id
}

// Binary declares a {0,1} variable.
func (m *Model) Binary(name string) VarID {
	return m.NewVar(name, Binary, 0, 1)
}

// Add appends a constraint to the model.
func (m *Model) Add(name string, e Expr, s Sense, rhs float64) {
	m.cons = append(m.cons, Constraint{Name: name, Expr: e.normalize(), Sense: s, RHS: rhs})
}

// SetObjective installs the objective expression. If maximize is true the
// model is compiled as min(-obj) and reported objective values are negated
// back by the solvers' callers.
func (m *Model) SetObjective(e Expr, maximize bool) {
	m.obj = e.normalize()
	m.maximize = maximize
}

// Objective returns the currently installed objective expression and
// direction.
func (m *Model) Objective() (Expr, bool) { return m.obj, m.maximize }

// ProductBB declares z = x*y for binary x, y using the standard exact
// linearization (z <= x, z <= y, z >= x + y - 1, z binary) and returns z.
func (m *Model) ProductBB(name string, x, y VarID) VarID {
	for _, v := range []VarID{x, y} {
		if m.vars[v].Kind != Binary {
			panic(fmt.Sprintf("linexpr: ProductBB operand %q is %s, want binary", m.vars[v].Name, m.vars[v].Kind))
		}
	}
	z := m.Binary(name)
	m.Add(name+"_le_x", TermOf(z, 1).PlusTerm(x, -1), LE, 0)
	m.Add(name+"_le_y", TermOf(z, 1).PlusTerm(y, -1), LE, 0)
	m.Add(name+"_ge_sum", TermOf(z, 1).PlusTerm(x, -1).PlusTerm(y, -1), GE, -1)
	return z
}

// ProductBV declares z = b*x for binary b and a variable x with finite
// bounds [lo, hi], using the exact big-M linearization
//
//	lo*b <= z <= hi*b
//	x - hi*(1-b) <= z <= x - lo*(1-b)
//
// and returns z. z inherits continuity from x (it is integral whenever x
// is, but the LP relaxation does not need to know that, so z is declared
// continuous; its value is forced exactly by the constraints once b is
// integral).
func (m *Model) ProductBV(name string, b, x VarID) VarID {
	if m.vars[b].Kind != Binary {
		panic(fmt.Sprintf("linexpr: ProductBV selector %q is %s, want binary", m.vars[b].Name, m.vars[b].Kind))
	}
	lo, hi := m.vars[x].Lo, m.vars[x].Hi
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		panic(fmt.Sprintf("linexpr: ProductBV operand %q must have finite bounds", m.vars[x].Name))
	}
	zlo, zhi := math.Min(0, lo), math.Max(0, hi)
	z := m.NewVar(name, Continuous, zlo, zhi)
	m.Add(name+"_lb_sel", TermOf(z, 1).PlusTerm(b, -lo), GE, 0)
	m.Add(name+"_ub_sel", TermOf(z, 1).PlusTerm(b, -hi), LE, 0)
	m.Add(name+"_ub_x", TermOf(z, 1).PlusTerm(x, -1).PlusTerm(b, -hi), GE, -hi)
	m.Add(name+"_lb_x", TermOf(z, 1).PlusTerm(x, -1).PlusTerm(b, -lo), LE, -lo)
	return z
}

// Compiled is the matrix form of a model: a minimization problem
//
//	min  c·x + c0
//	s.t. A_i·x {<=,>=,=} b_i
//	     lo <= x <= hi
//
// with Integer flags marking variables that must take integral values.
type Compiled struct {
	NumVars int
	// Obj is the dense objective coefficient vector (minimization).
	Obj []float64
	// ObjConst is the constant offset of the objective.
	ObjConst float64
	// Rows holds one entry per constraint.
	Rows []CompiledRow
	// Lo and Hi are the variable bounds.
	Lo, Hi []float64
	// Integer marks integral variables (Binary or Integer kinds).
	Integer []bool
	// Names holds variable names for diagnostics.
	Names []string
	// Negated records that the original objective was a maximization and
	// was negated during compilation.
	Negated bool
}

// CompiledRow is a dense constraint row. Skip is an opaque row tag:
// presolve-style reduction passes must leave tagged rows untouched and
// derive nothing from them (robust protection rows carry it — their
// right-hand sides may be retargeted after analysis, and their mixed
// binary/continuous support is outside the reductions' assumptions).
type CompiledRow struct {
	Name  string
	Coefs []float64
	Sense Sense
	RHS   float64
	Skip  bool
}

// Compile lowers the model to matrix form. The returned structure is
// independent of the model and may be mutated (e.g. rows appended) by
// callers implementing cutting planes.
func (m *Model) Compile() *Compiled {
	n := len(m.vars)
	c := &Compiled{
		NumVars: n,
		Obj:     make([]float64, n),
		Lo:      make([]float64, n),
		Hi:      make([]float64, n),
		Integer: make([]bool, n),
		Names:   make([]string, n),
		Negated: m.maximize,
	}
	for i, v := range m.vars {
		c.Lo[i], c.Hi[i] = v.Lo, v.Hi
		c.Integer[i] = v.Kind != Continuous
		c.Names[i] = v.Name
	}
	sign := 1.0
	if m.maximize {
		sign = -1
	}
	for _, t := range m.obj.Terms {
		c.Obj[t.Var] += sign * t.Coef
	}
	c.ObjConst = sign * m.obj.Const
	for _, con := range m.cons {
		row := CompiledRow{Name: con.Name, Coefs: make([]float64, n), Sense: con.Sense, RHS: con.RHS - con.Expr.Const}
		for _, t := range con.Expr.Terms {
			row.Coefs[t.Var] += t.Coef
		}
		c.Rows = append(c.Rows, row)
	}
	for _, i := range m.protected {
		c.Rows[i].Skip = true
	}
	return c
}

// AddRow appends an extra dense constraint row to a compiled problem; this
// is how the DSE core implements the Update(P̃, P̄ > P̄*) pruning step and
// how the MILP pool enumerator adds no-good cuts.
func (c *Compiled) AddRow(name string, coefs []float64, s Sense, rhs float64) {
	if len(coefs) != c.NumVars {
		panic(fmt.Sprintf("linexpr: AddRow got %d coefficients, want %d", len(coefs), c.NumVars))
	}
	row := CompiledRow{Name: name, Coefs: make([]float64, c.NumVars), Sense: s, RHS: rhs}
	copy(row.Coefs, coefs)
	c.Rows = append(c.Rows, row)
}

// AddExprRow appends a constraint expressed as an Expr. Variable IDs in the
// expression must refer to the model this Compiled was produced from.
func (c *Compiled) AddExprRow(name string, e Expr, s Sense, rhs float64) {
	e = e.normalize()
	coefs := make([]float64, c.NumVars)
	for _, t := range e.Terms {
		coefs[t.Var] += t.Coef
	}
	c.AddRow(name, coefs, s, rhs-e.Const)
}

// Clone deep-copies the compiled problem so branch-and-bound nodes and
// iterative cut loops can diverge without aliasing.
func (c *Compiled) Clone() *Compiled {
	out := &Compiled{
		NumVars:  c.NumVars,
		Obj:      append([]float64(nil), c.Obj...),
		ObjConst: c.ObjConst,
		Lo:       append([]float64(nil), c.Lo...),
		Hi:       append([]float64(nil), c.Hi...),
		Integer:  append([]bool(nil), c.Integer...),
		Names:    append([]string(nil), c.Names...),
		Negated:  c.Negated,
	}
	out.Rows = make([]CompiledRow, len(c.Rows))
	for i, r := range c.Rows {
		out.Rows[i] = CompiledRow{Name: r.Name, Coefs: append([]float64(nil), r.Coefs...), Sense: r.Sense, RHS: r.RHS, Skip: r.Skip}
	}
	return out
}

// Equal reports whether two compiled problems are identical bit for bit:
// every float is compared by its IEEE-754 bits (so 0 and −0 differ, and a
// NaN equals the same NaN), and names and row tags must match too. It is
// the cache key check for callers that reuse solver work across
// compilations of one model.
func (c *Compiled) Equal(d *Compiled) bool {
	if c.NumVars != d.NumVars || c.Negated != d.Negated || len(c.Rows) != len(d.Rows) ||
		math.Float64bits(c.ObjConst) != math.Float64bits(d.ObjConst) ||
		!bitsEqual(c.Obj, d.Obj) || !bitsEqual(c.Lo, d.Lo) || !bitsEqual(c.Hi, d.Hi) ||
		!slices.Equal(c.Integer, d.Integer) || !slices.Equal(c.Names, d.Names) {
		return false
	}
	for i, r := range c.Rows {
		s := d.Rows[i]
		if r.Name != s.Name || r.Sense != s.Sense || r.Skip != s.Skip ||
			math.Float64bits(r.RHS) != math.Float64bits(s.RHS) || !bitsEqual(r.Coefs, s.Coefs) {
			return false
		}
	}
	return true
}

// bitsEqual reports whether two float slices hold the same bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// String renders the model in a human-readable LP-like format, useful in
// tests and debugging.
func (m *Model) String() string {
	var b strings.Builder
	dir := "min"
	if m.maximize {
		dir = "max"
	}
	fmt.Fprintf(&b, "%s %s\n", dir, m.exprString(m.obj))
	for _, con := range m.cons {
		fmt.Fprintf(&b, "  %s: %s %s %g\n", con.Name, m.exprString(con.Expr), con.Sense, con.RHS)
	}
	for _, v := range m.vars {
		fmt.Fprintf(&b, "  %s %s in [%g, %g]\n", v.Kind, v.Name, v.Lo, v.Hi)
	}
	return b.String()
}

func (m *Model) exprString(e Expr) string {
	var parts []string
	for _, t := range e.Terms {
		parts = append(parts, fmt.Sprintf("%+g*%s", t.Coef, m.vars[t.Var].Name))
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%+g", e.Const))
	}
	return strings.Join(parts, " ")
}
