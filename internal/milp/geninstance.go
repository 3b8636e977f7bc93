package milp

import (
	"fmt"

	"hiopt/internal/linexpr"
	"hiopt/internal/rng"
)

// GenInstance builds a deterministic, paper-shaped MILP instance scaled
// to M body locations. It mirrors the structure the DSE core compiles
// for the Human Intranet design problem — location binaries with
// grouping and implication constraints, node-count indicator one-hots,
// tx-mode and protocol selections, and a doubly-linearized energy
// objective — but is generated directly on a linexpr.Model so M is not
// capped by the core's 16-bit topology encoding.
//
// The same (M, seed) pair always yields the same Compiled problem, so
// instances can serve as committed fixtures for tests and benchmarks.
// Objective coefficients are drawn from a fine lattice to keep optimum
// ties (and thus pool blow-ups) rare; the instance is scaled for root
// LPs with hundreds of rows, which is where the sparse kernel's
// advantage over the dense tableau shows.
func GenInstance(M int, seed uint64) *linexpr.Compiled {
	if M < 4 {
		panic(fmt.Sprintf("milp: GenInstance needs M >= 4, have %d", M))
	}
	g := rng.NewSource(seed).Stream("geninstance")
	m := linexpr.NewModel()

	// Location binaries, with the hub always placed.
	nVars := make([]linexpr.VarID, M)
	for i := range nVars {
		nVars[i] = m.Binary(fmt.Sprintf("n%d", i))
	}
	m.Add("fixed_n0", linexpr.TermOf(nVars[0], 1), linexpr.EQ, 1)

	// Coverage groups: at least one sensor from each body region.
	for gi := 0; gi < M/4; gi++ {
		var ids []linexpr.VarID
		seen := map[int]bool{}
		for len(ids) < 3 {
			i := 1 + g.Intn(M-1)
			if !seen[i] {
				seen[i] = true
				ids = append(ids, nVars[i])
			}
		}
		m.Add(fmt.Sprintf("group%d", gi), linexpr.Sum(ids...), linexpr.GE, 1)
	}

	// Implications: relays required by the sensors they serve.
	for ii := 0; ii < M/5; ii++ {
		a := 1 + g.Intn(M-1)
		b := 1 + g.Intn(M-1)
		if a == b {
			continue
		}
		m.Add(fmt.Sprintf("impl%d", ii),
			linexpr.TermOf(nVars[b], 1).PlusTerm(nVars[a], -1), linexpr.LE, 0)
	}

	minNodes, maxNodes := 2, M
	nSum := linexpr.Sum(nVars...)
	m.Add("min_nodes", nSum, linexpr.GE, float64(minNodes))
	m.Add("max_nodes", nSum, linexpr.LE, float64(maxNodes))

	// Tx power mode one-hot.
	const nModes = 3
	pVars := make([]linexpr.VarID, nModes)
	for k := range pVars {
		pVars[k] = m.Binary(fmt.Sprintf("p%d", k+1))
	}
	m.Add("one_tx_mode", linexpr.Sum(pVars...), linexpr.EQ, 1)

	// Protocol selections.
	rtVar := m.Binary("prt")
	_ = m.Binary("pmac")

	// Node-count indicators y_n linked to the location sum.
	var yVars []linexpr.VarID
	var yTerms, linkTerms linexpr.Expr
	counts := make([]int, 0, maxNodes-minNodes+1)
	for n := minNodes; n <= maxNodes; n++ {
		y := m.Binary(fmt.Sprintf("y%d", n))
		yVars = append(yVars, y)
		counts = append(counts, n)
		yTerms = yTerms.PlusTerm(y, 1)
		linkTerms = linkTerms.PlusTerm(y, float64(n))
	}
	m.Add("one_count", yTerms, linexpr.EQ, 1)
	m.Add("count_link", nSum.Minus(linkTerms), linexpr.EQ, 0)

	// Deployment-size budget: node counts above M/2 are unaffordable.
	// Written as one soft-looking knapsack row so presolve has real work:
	// activity bounds fix every over-budget indicator to 0, after which
	// the spent row is strictly slack and gets dropped.
	var budgetE linexpr.Expr
	for mi, n := range counts {
		if n > M/2 {
			budgetE = budgetE.PlusTerm(yVars[mi], float64(n))
		}
	}
	m.Add("size_budget", budgetE, linexpr.LE, float64(M)/2)

	// Interference conflicts between co-located sensors, written in the
	// weak 2a + b <= 2 form whose relaxation admits the fractional point
	// (1/2, 1); presolve tightens each to the pairwise exclusion
	// a + b <= 1 with the same integer points.
	for ci := 0; ci < M/8; ci++ {
		a := 1 + g.Intn(M-1)
		b := 1 + g.Intn(M-1)
		if a == b {
			continue
		}
		m.Add(fmt.Sprintf("conflict%d", ci),
			linexpr.TermOf(nVars[a], 2).PlusTerm(nVars[b], 1), linexpr.LE, 2)
	}

	// Energy objective: per (count, mode) products w = y·p and their
	// routing refinements u = w·rt, each ProductBB adding three rows.
	// Coefficients follow the paper's star/mesh shapes with per-instance
	// jitter on a 1/1024 lattice so the optimum is (almost always)
	// unique.
	obj := linexpr.NewExpr(1)
	for mi, n := range counts {
		for k := 0; k < nModes; k++ {
			ck := float64(float64(k+1) * (1 + float64(float64(g.Intn(512))/1024)))
			rx := 0.5 + float64(float64(g.Intn(256))/1024)
			w := m.ProductBB(fmt.Sprintf("w_%d_%d", n, k), yVars[mi], pVars[k])
			u := m.ProductBB(fmt.Sprintf("u_%d_%d", n, k), w, rtVar)
			starCoef := ck + float64(2*float64(n-1)*rx)
			meshCoef := float64(2*ck) + float64(1.5*float64(n-1)*rx)
			obj = obj.PlusTerm(w, starCoef)
			obj = obj.PlusTerm(u, meshCoef-starCoef)
		}
	}
	// Small per-location placement costs keep the location choice itself
	// price-driven rather than purely constraint-driven.
	for i := 1; i < M; i++ {
		obj = obj.PlusTerm(nVars[i], float64(1+g.Intn(64))/256)
	}
	m.SetObjective(obj, false)
	return m.Compile()
}
