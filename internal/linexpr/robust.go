// Γ-robust (cardinality-constrained) constraint protection after
// Bertsimas–Sim, the formulation the D'Andreagiovanni WBSN papers apply
// to body-area link budgets: a protected constraint must hold when any
// Γ of its uncertain coefficients simultaneously take their worst-case
// deviation. The inner adversarial maximum is linearized through LP
// duality, so the lowered model stays a plain MILP that the dense and
// sparse kernels solve unchanged.
package linexpr

import (
	"fmt"
	"math"
)

// RobustTerm is one deviating coefficient of a protected constraint: the
// nominal coefficient of Var (stated in the constraint expression) may
// increase by up to Dev in the adversary's chosen subset. Dev must be
// non-negative and the variable's domain non-negative — the protection
// term below assumes d_j·x_j >= 0, which holds for the binary and
// [0,hi]-bounded variables this model layer produces.
type RobustTerm struct {
	Var VarID
	Dev float64
}

// RobustAux records the auxiliary structure AddRobust created for one
// protected constraint, in case the caller needs to locate it in the
// compiled arena (e.g. to tag rows or retarget bounds).
type RobustAux struct {
	// Z is the dual "protection level" variable (one per protected
	// constraint), or -1 when the constraint lowered to a plain row
	// (gamma <= 0 or no deviations).
	Z VarID
	// P holds the dual deviation variables, one per RobustTerm.
	P []VarID
	// Row is the index of the protected row in the model's constraint
	// list (== the row index in the Compiled arena, since Compile
	// preserves constraint order).
	Row int
	// DevRows are the indices of the dual linking rows z + p_j >= d_j x_j.
	DevRows []int
}

// AddRobust appends the Γ-protected counterpart of the LE constraint
//
//	e <= rhs
//
// where the coefficient of each devs[j].Var may deviate upward by up to
// devs[j].Dev, and the adversary may deviate any gamma of them at once
// (a fractional gamma protects floor(gamma) full deviations plus a
// frac(gamma) share of one more — the standard Bertsimas–Sim budget).
// The robust counterpart
//
//	e + max_{S ⊆ devs, |S| <= Γ} Σ_{j∈S} d_j·x_j <= rhs
//
// is lowered through the dual of the inner maximization into one
// auxiliary variable z >= 0 for the cardinality budget, one p_j >= 0 per
// deviating coefficient, the linking rows
//
//	z + p_j >= d_j·x_j        (one per j)
//
// and the protected row
//
//	e + Γ·z + Σ_j p_j <= rhs.
//
// Minimizing solvers drive z and p to the dual optimum, which equals the
// adversary's best subset value exactly, so the lowering is tight: no
// feasible point is lost and no fragile point survives. With gamma <= 0
// or an empty deviation list the constraint is added verbatim (the
// nominal row) and no auxiliaries are created — a Γ=0 compilation is
// bit-identical to the unprotected model.
//
// The protected row and the linking rows are marked protected, which the
// compiled arena exposes as CompiledRow.Skip so downstream presolve
// passes leave them untouched (their mixed binary/continuous support
// violates the all-binary assumptions of coefficient tightening).
func (m *Model) AddRobust(name string, e Expr, rhs float64, gamma float64, devs []RobustTerm) RobustAux {
	if gamma <= 0 || len(devs) == 0 {
		m.Add(name, e, LE, rhs)
		return RobustAux{Z: -1, Row: len(m.cons) - 1}
	}
	if gamma > float64(len(devs)) {
		// More budget than deviations: every coefficient may deviate, and
		// the dual optimum pins z = 0. Capping keeps the row coefficients
		// in the meaningful range.
		gamma = float64(len(devs))
	}
	dmax := 0.0
	for _, d := range devs {
		if d.Dev < 0 || math.IsNaN(d.Dev) || math.IsInf(d.Dev, 0) {
			panic(fmt.Sprintf("linexpr: AddRobust %q: deviation %g of %q must be finite and non-negative",
				name, d.Dev, m.vars[d.Var].Name))
		}
		if m.vars[d.Var].Lo < 0 {
			panic(fmt.Sprintf("linexpr: AddRobust %q: deviating variable %q has negative lower bound %g (protection assumes x >= 0)",
				name, m.vars[d.Var].Name, m.vars[d.Var].Lo))
		}
		if d.Dev > dmax {
			dmax = d.Dev
		}
	}
	aux := RobustAux{}
	// The dual variables carry their natural finite bounds: at the dual
	// optimum z is one of the deviation magnitudes (or 0) and
	// p_j <= d_j·hi_j. Finite bounds keep the warm-start kernels off
	// their unbounded-variable fallback and the pool enumerator's loose
	// objective bound finite.
	aux.Z = m.NewVar(name+"_z", Continuous, 0, dmax)
	protected := e.PlusTerm(aux.Z, gamma)
	for j, d := range devs {
		hi := m.vars[d.Var].Hi
		if math.IsInf(hi, 1) {
			panic(fmt.Sprintf("linexpr: AddRobust %q: deviating variable %q must have a finite upper bound",
				name, m.vars[d.Var].Name))
		}
		p := m.NewVar(fmt.Sprintf("%s_p%d", name, j), Continuous, 0, d.Dev*hi)
		aux.P = append(aux.P, p)
		m.Add(fmt.Sprintf("%s_dev%d", name, j),
			TermOf(aux.Z, 1).PlusTerm(p, 1).PlusTerm(d.Var, -d.Dev), GE, 0)
		aux.DevRows = append(aux.DevRows, len(m.cons)-1)
		m.protected = append(m.protected, len(m.cons)-1)
		protected = protected.PlusTerm(p, 1)
	}
	m.Add(name, protected, LE, rhs)
	aux.Row = len(m.cons) - 1
	m.protected = append(m.protected, aux.Row)
	return aux
}

// Protect marks an already-added constraint (by index, e.g. RobustAux.Row
// or len-1 after Add) as protected: its compiled row carries Skip so
// presolve reductions leave it alone. Used for robust rows whose dual
// has been eliminated analytically into the right-hand side and which
// callers retarget via SetRowRHS — a presolve pass must not reason from
// a right-hand side that is about to move.
func (m *Model) Protect(row int) {
	if row < 0 || row >= len(m.cons) {
		panic(fmt.Sprintf("linexpr: Protect row %d out of range [0, %d)", row, len(m.cons)))
	}
	m.protected = append(m.protected, row)
}

// ProtectionValue computes the exact adversarial protection value
// max_{|S| <= Γ} Σ_{j∈S} d_j·x_j at the assignment x — the amount the
// lowered z/p machinery adds to the protected row's activity at the dual
// optimum. Exposed for tests and diagnostics.
func ProtectionValue(gamma float64, devs []RobustTerm, x []float64) float64 {
	if gamma <= 0 || len(devs) == 0 {
		return 0
	}
	vals := make([]float64, 0, len(devs))
	for _, d := range devs {
		if v := d.Dev * x[d.Var]; v > 0 {
			vals = append(vals, v)
		}
	}
	// Descending selection of the floor(Γ) largest plus a fractional
	// share of the next.
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if vals[j] > vals[i] {
				vals[i], vals[j] = vals[j], vals[i]
			}
		}
	}
	total, budget := 0.0, gamma
	for _, v := range vals {
		if budget <= 0 {
			break
		}
		if budget >= 1 {
			total += v
			budget--
		} else {
			total += float64(budget * v)
			budget = 0
		}
	}
	return total
}
