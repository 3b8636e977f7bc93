// Package core implements the paper's primary contribution: the Human
// Intranet design-space exploration of Algorithm 1, coordinating a MILP
// candidate generator (the relaxed problem P̃ with the Eq. 9 power
// objective) with the accurate discrete-event simulator.
//
// The package has two halves:
//
//   - model.go lowers the design problem to a mixed integer linear program
//     over internal/linexpr, with an exact linearization of the Eq. (9)
//     objective (products of the routing bit, the node-count indicators,
//     and the power-mode bits become auxiliary binaries);
//   - optimizer.go runs the iterative RunMILP → RunSim → Sort → Update
//     loop with the α-scaled termination bound.
package core

import (
	"fmt"
	"math"
	"unsafe"

	"hiopt/internal/design"
	"hiopt/internal/linexpr"
	"hiopt/internal/netsim"
)

// milpModel carries the compiled relaxation P̃ together with the variable
// bookkeeping needed to decode MILP solutions into design points and to
// re-state the objective as a cut expression.
type milpModel struct {
	model *linexpr.Model
	// nVars[i] is the binary n_i for body location i.
	nVars []linexpr.VarID
	// pVars[k] is the binary selecting radio Tx mode k.
	pVars []linexpr.VarID
	// macVar is the binary P_MAC (0 = CSMA, 1 = TDMA).
	macVar linexpr.VarID
	// rtVar is the binary P_rt (0 = star, 1 = mesh).
	rtVar linexpr.VarID
	// yVars[m] indicates N == nodeCounts[m].
	yVars      []linexpr.VarID
	nodeCounts []int
	// objective is the Eq. (9) expression in mW (used both as the model
	// objective and as the left-hand side of pruning cuts).
	objective linexpr.Expr
}

// buildMILP lowers the problem's topology and configuration constraints
// plus the Eq. (9) objective to a pure-binary MILP.
//
// Linearization: with y_m the indicator "N = m" and p_k the Tx-mode
// selector, the binary products w_{m,k} = y_m·p_k and u_{m,k} = w_{m,k}·rt
// make Eq. (9) affine:
//
//	P̄ = P_bl + φT_pkt·Σ_{m,k} [ starCoef(m,k)·(w_{m,k} − u_{m,k})
//	                           + meshCoef(m,k)·u_{m,k} ]
//
// where starCoef(m,k) = c_k + 2(m−1)·Rx and
// meshCoef(m,k) = NreTx(m)·(c_k + (m−1)·Rx).
func buildMILP(pr *design.Problem) (*milpModel, error) {
	c := pr.Constraints
	if c.M > 16 {
		return nil, fmt.Errorf("core: at most 16 locations supported, have %d", c.M)
	}
	if c.MinNodes < 2 {
		return nil, fmt.Errorf("core: need MinNodes >= 2, have %d", c.MinNodes)
	}
	m := linexpr.NewModel()
	mm := &milpModel{model: m}

	// Topology bits.
	for i := 0; i < c.M; i++ {
		mm.nVars = append(mm.nVars, m.Binary(fmt.Sprintf("n%d", i)))
	}
	for _, f := range c.Fixed {
		m.Add(fmt.Sprintf("fixed_n%d", f), linexpr.TermOf(mm.nVars[f], 1), linexpr.EQ, 1)
	}
	for gi, grp := range c.AtLeastOneOf {
		var ids []linexpr.VarID
		for _, i := range grp {
			ids = append(ids, mm.nVars[i])
		}
		m.Add(fmt.Sprintf("group%d", gi), linexpr.Sum(ids...), linexpr.GE, 1)
	}
	for ii, im := range c.Implications {
		// n_j used ⇒ n_i used: n_j − n_i <= 0.
		m.Add(fmt.Sprintf("impl%d", ii),
			linexpr.TermOf(mm.nVars[im[1]], 1).PlusTerm(mm.nVars[im[0]], -1), linexpr.LE, 0)
	}
	nSum := linexpr.Sum(mm.nVars...)
	m.Add("min_nodes", nSum, linexpr.GE, float64(c.MinNodes))
	m.Add("max_nodes", nSum, linexpr.LE, float64(c.MaxNodes))

	// Tx power mode one-hot (the paper's p1 + p2 + p3 = 1).
	for k := range pr.Radio.TxModes {
		mm.pVars = append(mm.pVars, m.Binary(fmt.Sprintf("p%d", k+1)))
	}
	m.Add("one_tx_mode", linexpr.Sum(mm.pVars...), linexpr.EQ, 1)

	// Protocol selections.
	mm.macVar = m.Binary("pmac")
	mm.rtVar = m.Binary("prt")

	// Node-count indicators y_m, linked to Σ n_i.
	var yTerms linexpr.Expr
	var linkTerms linexpr.Expr
	for n := c.MinNodes; n <= c.MaxNodes; n++ {
		y := m.Binary(fmt.Sprintf("y%d", n))
		mm.yVars = append(mm.yVars, y)
		mm.nodeCounts = append(mm.nodeCounts, n)
		yTerms = yTerms.PlusTerm(y, 1)
		linkTerms = linkTerms.PlusTerm(y, float64(n))
	}
	m.Add("one_count", yTerms, linexpr.EQ, 1)
	m.Add("count_link", nSum.Minus(linkTerms), linexpr.EQ, 0)

	// Objective, Eq. (9), exactly linearized.
	rx := float64(pr.Radio.RxConsumptionMW)
	scale := pr.RatePPS * pr.Tpkt()
	obj := linexpr.NewExpr(float64(pr.BaselineMW))
	for mi, n := range mm.nodeCounts {
		for k := range pr.Radio.TxModes {
			ck := float64(pr.Radio.TxModes[k].ConsumptionMW)
			w := m.ProductBB(fmt.Sprintf("w_%d_%d", n, k), mm.yVars[mi], mm.pVars[k])
			u := m.ProductBB(fmt.Sprintf("u_%d_%d", n, k), w, mm.rtVar)
			starCoef := float64(scale * (ck + float64(2*float64(n-1)*rx)))
			meshCoef := float64(scale * float64(design.NreTx(n, pr.NHops)) * (ck + float64(float64(n-1)*rx)))
			obj = obj.PlusTerm(w, starCoef)
			obj = obj.PlusTerm(u, meshCoef-starCoef)
		}
	}
	mm.objective = obj
	m.SetObjective(obj, false)
	return mm, nil
}

// decode turns a MILP solution vector into a design point.
func (mm *milpModel) decode(x []float64) design.Point {
	var p design.Point
	for i, id := range mm.nVars {
		if x[id] > 0.5 {
			p.Topology |= 1 << uint(i)
		}
	}
	for k, id := range mm.pVars {
		if x[id] > 0.5 {
			p.TxMode = k
		}
	}
	if x[mm.macVar] > 0.5 {
		p.MAC = netsim.TDMA
	} else {
		p.MAC = netsim.CSMA
	}
	if x[mm.rtVar] > 0.5 {
		p.Routing = netsim.Mesh
	} else {
		p.Routing = netsim.Star
	}
	return p
}

// objectiveValue evaluates the compiled Eq. (9) expression at a solution.
func (mm *milpModel) objectiveValue(x []float64) float64 {
	return mm.objective.Eval(x)
}

// checkExactness verifies (in tests and debug assertions) that the
// linearized objective agrees with design.Problem.AnalyticPower on an
// integral solution.
func (mm *milpModel) checkExactness(pr *design.Problem, x []float64) error {
	p := mm.decode(x)
	want := pr.AnalyticPower(p)
	got := mm.objectiveValue(x)
	if math.Abs(got-want) > 1e-6 {
		return fmt.Errorf("core: linearized objective %v != analytic %v for %v", got, want, p)
	}
	return nil
}

// decoder returns a copy of mm without its linexpr.Model: what a class
// record keeps to decode its pools and state its cuts, once the model
// has been compiled.
func (mm *milpModel) decoder() *milpModel {
	d := *mm
	d.model = nil
	return &d
}

// bytes is a decoder's heap: the model without its linexpr.Model, its
// variable lists and its objective.
func (mm *milpModel) bytes() int64 {
	id := int64(unsafe.Sizeof(linexpr.VarID(0)))
	n := int64(unsafe.Sizeof(*mm)) + id*int64(cap(mm.nVars)+cap(mm.pVars)+cap(mm.yVars))
	n += int64(cap(mm.nodeCounts)) * int64(unsafe.Sizeof(int(0)))
	return n + int64(cap(mm.objective.Terms))*int64(unsafe.Sizeof(linexpr.Term{}))
}
