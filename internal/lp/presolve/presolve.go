// Package presolve implements an arena-level presolve pass for the
// MILP relaxations of Algorithm 1: implied variable fixing from
// activity bounds, removal of rows that provably never bind, and
// coefficient tightening on all-binary rows — the reduced-formulation
// half of the D'Andreagiovanni WBSN recipe, applied automatically in
// front of the warm-start kernels.
//
// Every reduction is *implied* by the original constraints, so the set
// of integer-feasible points (and therefore the optimal-solution pool
// milp.State enumerates) is unchanged, and no coordinate translation is
// ever needed on the way back:
//
//   - fixings are expressed as solver-level bounds on the original
//     variable indices;
//   - dropped rows are restricted to rows whose activity range clears
//     the right-hand side with strict margin, so their duals are
//     exactly zero — the value a Solution already reports for dropped
//     rows;
//   - coefficient tightening rewrites a row in place in the arena
//     (original row index, original variable indices), preserving the
//     binary feasible set while shrinking the LP relaxation.
//
// The postsolve "map" is therefore the identity: X, duals, and reduced
// costs come back in original coordinates by construction, which is
// what milp.State's root reduced-cost fixing requires.
package presolve

import (
	"math"
	"unsafe"

	"hiopt/internal/linexpr"
)

// feasTol is the safety margin for fixing and dropping decisions: a
// reduction fires only when the implying inequality clears its
// threshold by more than this, so no feasible point is ever cut.
const feasTol = 1e-7

// Bounds is a variable's implied bound box; a fixing has Lo == Hi.
type Bounds struct{ Lo, Hi float64 }

// patch is one coefficient-tightening rewrite of an arena row.
type patch struct {
	row  int
	coef map[int]float64 // variable -> new coefficient
	rhs  float64
}

// Reductions is the outcome of Analyze: the implied reductions of one
// compiled problem, in original coordinates.
type Reductions struct {
	// Fixed maps a variable index to its implied fixing.
	Fixed map[int]Bounds
	// DropRows lists arena rows whose activity range clears the RHS
	// with strict margin on the binding side: they can never bind, and
	// their duals are exactly zero.
	DropRows []int
	patches  []patch
}

// Stats summarizes applied reductions for Outcome reporting.
type Stats struct {
	FixedVars      int
	DroppedRows    int
	TightenedCoefs int
}

// Stats returns the reduction counts.
func (r *Reductions) Stats() Stats {
	n := 0
	for _, p := range r.patches {
		n += len(p.coef)
	}
	return Stats{FixedVars: len(r.Fixed), DroppedRows: len(r.DropRows), TightenedCoefs: n}
}

// binary reports whether variable j is an integer variable whose
// current working box is exactly the unfixed binary box [0, 1] — the
// only shape the fixing and tightening rules below are derived for.
func binary(p *linexpr.Compiled, lo, hi []float64, j int) bool {
	return p.Integer[j] &&
		lo[j] >= -feasTol && lo[j] <= feasTol &&
		hi[j] >= 1-feasTol && hi[j] <= 1+feasTol
}

// Analyze computes the implied reductions of p without mutating it,
// iterating fixing and redundancy detection to a fixpoint and then
// deriving coefficient tightenings. EQ rows are left untouched.
func Analyze(p *linexpr.Compiled) *Reductions {
	red := &Reductions{Fixed: map[int]Bounds{}}
	lo := append([]float64(nil), p.Lo...)
	hi := append([]float64(nil), p.Hi...)
	dropped := make([]bool, len(p.Rows))

	// act returns the activity range [L, U] of row coefficients under the
	// current working box.
	act := func(coefs []float64) (L, U float64) {
		for j, c := range coefs {
			if c == 0 {
				continue
			}
			if c > 0 {
				L += float64(c * lo[j])
				U += float64(c * hi[j])
			} else {
				L += float64(c * hi[j])
				U += float64(c * lo[j])
			}
		}
		return
	}

	fix := func(j int, v float64) bool {
		if lo[j] == v && hi[j] == v {
			return false
		}
		lo[j], hi[j] = v, v
		red.Fixed[j] = Bounds{v, v}
		return true
	}

	// Fixing + redundancy to fixpoint. Each row is analyzed in its LE
	// normalization (GE rows via sign flip): Σ a_j x_j ≤ b. Skip-tagged
	// rows (robust protection rows) are opaque: they are never dropped or
	// tightened, and no fixing is derived from them — their right-hand
	// sides may be retargeted after this analysis runs, which would
	// invalidate any reduction reasoned from the pre-retarget value.
	for changed := true; changed; {
		changed = false
		for i := range p.Rows {
			if dropped[i] || p.Rows[i].Sense == linexpr.EQ || p.Rows[i].Skip {
				continue
			}
			row := &p.Rows[i]
			sgn := 1.0
			if row.Sense == linexpr.GE {
				sgn = -1
			}
			b := float64(sgn * row.RHS)
			var L, U float64
			{
				l0, u0 := act(row.Coefs)
				if sgn > 0 {
					L, U = l0, u0
				} else {
					L, U = -u0, -l0
				}
			}
			if U <= b-float64(feasTol*(1+math.Abs(b))) {
				// Strictly slack at every point of the box: never binds.
				dropped[i] = true
				red.DropRows = append(red.DropRows, i)
				changed = true
				continue
			}
			if math.IsInf(L, -1) {
				continue
			}
			// Implied fixing of binaries: if forcing x_j off its cheap
			// side already violates the row, it is fixed there.
			for j, c := range row.Coefs {
				if c == 0 || !binary(p, lo, hi, j) || lo[j] == hi[j] {
					continue
				}
				a := float64(sgn * c)
				if a > 0 && L+a > b+feasTol {
					changed = fix(j, 0) || changed
				} else if a < 0 && L-a > b+feasTol {
					changed = fix(j, 1) || changed
				}
			}
		}
	}

	// Coefficient tightening on rows whose entire support is unfixed
	// binaries (Savelsbergh-style): when the row is slack-redundant at
	// x_j = 0 but violable at x_j = 1, coefficient and RHS shrink
	// together by the slack; the binary feasible set is untouched and
	// the relaxation tightens.
	for i := range p.Rows {
		if dropped[i] || p.Rows[i].Sense == linexpr.EQ || p.Rows[i].Skip {
			continue
		}
		row := &p.Rows[i]
		sgn := 1.0
		if row.Sense == linexpr.GE {
			sgn = -1
		}
		allBin := false
		for j, c := range row.Coefs {
			if c == 0 {
				continue
			}
			if !binary(p, lo, hi, j) || lo[j] == hi[j] {
				allBin = false
				break
			}
			allBin = true
		}
		if !allBin {
			continue
		}
		// Work on a LE-normalized copy.
		a := map[int]float64{}
		U := 0.0
		for j, c := range row.Coefs {
			if c != 0 {
				a[j] = sgn * c
				if a[j] > 0 {
					U += a[j]
				}
			}
		}
		b := sgn * row.RHS
		changedRow := false
		for again := true; again; {
			again = false
			for j, aj := range a {
				if aj > 0 {
					// Others' max activity.
					Uj := U - aj
					if Uj < b-feasTol && aj > b-Uj+feasTol {
						delta := b - Uj
						a[j] = aj - delta
						U -= delta
						b = Uj
						changedRow, again = true, true
					}
				} else if aj < 0 {
					// Row redundant once x_j = 1, violable at x_j = 0:
					// pull the coefficient toward zero.
					if U > b+feasTol && U+aj < b-feasTol {
						a[j] = b - U
						changedRow, again = true, true
					}
				}
			}
		}
		if !changedRow {
			continue
		}
		pt := patch{row: i, coef: map[int]float64{}, rhs: sgn * b}
		for j, aj := range a {
			if sgn*aj != row.Coefs[j] {
				pt.coef[j] = sgn * aj
			}
		}
		red.patches = append(red.patches, pt)
	}
	return red
}

// Apply rewrites p's rows with the analyzed coefficient tightenings
// (fixings and drops are applied by the caller at the solver level,
// where they belong) and returns the reduction statistics.
func (r *Reductions) Apply(p *linexpr.Compiled) Stats {
	for _, pt := range r.patches {
		row := &p.Rows[pt.row]
		for j, c := range pt.coef {
			row.Coefs[j] = c
		}
		row.RHS = pt.rhs
	}
	return r.Stats()
}

// mapEntryBytes estimates a small map's cost per entry beyond its key
// and value: bucket headers, tophash bytes and load-factor slack.
const mapEntryBytes = 24

// Bytes estimates the reductions' heap: the fixings, the dropped rows
// and the coefficient patches.
func (r *Reductions) Bytes() int64 {
	n := int64(unsafe.Sizeof(*r)) + int64(len(r.Fixed))*(int64(unsafe.Sizeof(Bounds{}))+8+mapEntryBytes)
	n += int64(cap(r.DropRows))*8 + int64(cap(r.patches))*int64(unsafe.Sizeof(patch{}))
	for _, p := range r.patches {
		n += int64(len(p.coef)) * (16 + mapEntryBytes)
	}
	return n
}
