package core

import (
	"fmt"
	"math"

	"hiopt/internal/body"
	"hiopt/internal/design"
	"hiopt/internal/fault"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
)

// RobustCompile configures the Γ-robust compilation mode of the MILP
// relaxation P̃: cardinality-constrained (Bertsimas–Sim) protection terms
// on the link-budget and node-availability constraint families, lowered
// through LP duality in internal/linexpr so the output stays a plain
// MILP for the existing kernels. With Gamma == 0 the compilation is
// bit-identical to the nominal P̃.
type RobustCompile struct {
	// Gamma is the protection budget: the number of uncertain
	// coefficients the adversary may deviate at once. It scales the
	// availability family (how many nodes fail simultaneously) and, in
	// the saturated min(Γ,1) form, the per-link and power deviations
	// (each link-budget row has a single uncertain path loss; the power
	// row's deviations attach to one-hot selector products — the
	// adversary gains nothing past the first deviation in either, so the
	// compiled matrix is identical for every Γ >= 1 and a Γ sweep is
	// pure right-hand-side retargeting; see RobustHandle).
	Gamma float64
	// LinkDeviationDB is the worst-case upward path-loss deviation
	// protected against on every link-budget row, in dB. 0 derives it
	// from the channel model's shadowing statistics as Sigma/2 — the
	// Gauss–Markov temporal variation spends most of its time within
	// half a standard deviation, and a full-σ margin would exceed the
	// strongest Tx mode's headroom on the mandatory ankle link, making
	// every protected problem vacuously infeasible.
	LinkDeviationDB float64
	// PowerDeviationFrac is the fractional upward deviation of each
	// Eq. (9) power coefficient (fault-induced retransmissions and
	// recovery traffic), protected on the power-budget row. 0 derives
	// the default 0.15. The power family only exists when PowerBudgetMW
	// is set — the nominal model has no power constraint, only the
	// objective.
	PowerDeviationFrac float64
	// PowerBudgetMW, when positive, adds a protected power-budget row
	// P̄(x) + protection <= PowerBudgetMW.
	PowerBudgetMW float64
	// PDRFloor is the robust reliability floor of the availability
	// family: the network PDR proxy must clear it with Γ nodes failed.
	// 0 derives Problem.PDRMin. Note the hard ceiling: with N nodes and
	// Γ failures the proxy cannot exceed (N − Γ(1−FailFrac))/N, so a
	// floor of Problem.PDRMin = 0.9 is unattainable within the paper's
	// MaxNodes = 6 at Γ >= 1 and the compiled problem is (correctly)
	// infeasible; robust studies set an attainable floor explicitly.
	PDRFloor float64
	// FailFrac is the delivered-traffic fraction of an adversarially
	// failed node (it dies at FailFrac × horizon). 0 derives
	// fault.DefaultFailFrac, keeping the proposer and the simulation
	// verifier on the same fault model.
	FailFrac float64
}

func (rc RobustCompile) withDefaults(pr *design.Problem) RobustCompile {
	if rc.LinkDeviationDB <= 0 {
		rc.LinkDeviationDB = float64(pr.Channel.Sigma) / 2
	}
	if rc.PowerDeviationFrac <= 0 {
		rc.PowerDeviationFrac = 0.15
	}
	if rc.PDRFloor <= 0 {
		rc.PDRFloor = pr.PDRMin
	}
	if rc.FailFrac <= 0 {
		rc.FailFrac = fault.DefaultFailFrac
	}
	return rc
}

// RobustHandle locates the Γ-dependent artifacts of a robust
// compilation inside the compiled arena, so callers can retarget Γ on a
// live warm-started milp.State instead of recompiling. The entire
// Γ-dependence of the compiled matrix for Γ >= 1 sits in one number:
// the availability row's right-hand side −(1−FailFrac)·Γ (the link and
// power families are compiled in their saturated min(Γ,1) form, exact
// for their single-deviation structure). A Γ move is therefore one
// SetRowRHS call — the warm kernel re-solves from its current basis by
// dual simplex, which is the performance-critical property the
// milp_gamma_warm benchmark pins.
type RobustHandle struct {
	// Gamma is the currently targeted protection budget.
	Gamma float64
	// FailFrac and PDRFloor echo the compilation parameters.
	FailFrac float64
	PDRFloor float64
	// AvailRow is the arena row index of the availability floor row
	// (the analytically eliminated dual: each failed node costs exactly
	// (1−FailFrac) of the PDR-proxy mass, so the inner maximum is
	// Γ·(1−FailFrac) independent of which nodes are chosen, and the
	// whole protection folds into the right-hand side).
	AvailRow int
	// LinkRows are the protected link-budget rows (identical for every
	// Γ >= 1); PowerRow is the protected power-budget row or -1.
	LinkRows []int
	PowerRow int
	// AuxVars counts the z/p dual auxiliaries the lowering added.
	AuxVars int
}

// AvailRHS is the availability row's right-hand side at budget gamma.
func (h *RobustHandle) AvailRHS(gamma float64) float64 {
	return -(1 - h.FailFrac) * gamma
}

// retargetable validates a Γ move without a rebuild: both endpoints
// must sit in the saturated regime (Γ >= 1), where the link and power
// rows are Γ-invariant and only the availability RHS encodes Γ.
func (h *RobustHandle) retargetable(gamma float64) error {
	if gamma <= 0 {
		return fmt.Errorf("core: cannot retarget to Γ=%g: a Γ=0 relaxation is structurally nominal (no protection rows); recompile instead", gamma)
	}
	if math.Min(gamma, 1) != math.Min(h.Gamma, 1) {
		return fmt.Errorf("core: cannot retarget Γ %g -> %g across the saturation boundary: the link/power deviation scale min(Γ,1) changes; recompile instead", h.Gamma, gamma)
	}
	return nil
}

// RetargetGamma moves a live warm MILP state (built over this handle's
// compiled arena) to a new protection budget via a single right-hand
// side mutation — no recompilation, no cold rebuild.
func (h *RobustHandle) RetargetGamma(st *milp.State, gamma float64) error {
	if err := h.retargetable(gamma); err != nil {
		return err
	}
	st.SetRowRHS(h.AvailRow, h.AvailRHS(gamma))
	h.Gamma = gamma
	return nil
}

// RetargetArena retargets the compiled arena directly (the cold-path
// equivalent of RetargetGamma, for callers without a warm state).
func (h *RobustHandle) RetargetArena(work *linexpr.Compiled, gamma float64) error {
	if err := h.retargetable(gamma); err != nil {
		return err
	}
	work.Rows[h.AvailRow].RHS = h.AvailRHS(gamma)
	h.Gamma = gamma
	return nil
}

// buildRobust appends the Γ-protection families to a built nominal
// model. It must run before Compile (row indices are model constraint
// indices, preserved by compilation).
//
// Families:
//
//   - link budget ("robust_link_i", one per non-coordinator location):
//     if n_i is used in a star, some Tx mode must close the uplink to
//     the chest coordinator against the mean path loss plus the
//     protected deviation δ. The row's single uncertain coefficient
//     admits a closed-form inner maximum min(Γ,1)·δ·n_i, so the dual is
//     eliminated analytically and the big-M form reads
//
//     (PL̄_i + min(Γ,1)·δ + B_i)·n_i − Σ_k Tx_k·p_k − B_i·rt <= B_i − Sens.
//
//     Mesh designs escape via the rt term: multi-hop relaying makes the
//     single-uplink budget the wrong model there (and mesh's NreTx
//     power cost already dominates the pool ordering).
//
//   - availability ("robust_avail", one row): the network-PDR proxy —
//     the mean of per-node delivery, a failed node contributing
//     FailFrac — must clear PDRFloor with Γ nodes failed:
//     N − Γ(1−FailFrac) >= PDRFloor·N. Every used node deviates by the
//     same (1−FailFrac), so the inner adversarial maximum is the
//     constant Γ(1−FailFrac) whenever N >= Γ and the dual solves in
//     closed form (z* = 1−FailFrac, p* = 0): the protection folds into
//     the right-hand side, which is what makes a warm Γ sweep pure
//     SetRowRHS. The row is Protect-tagged so presolve derives nothing
//     from a right-hand side that is about to move.
//
//   - power budget ("robust_power", only with PowerBudgetMW > 0): the
//     Eq. (9) objective expression bounded by the budget, every w/u
//     product coefficient deviating by PowerDeviationFrac of itself,
//     lowered with the full multi-term z/p dual.
func buildRobust(mm *milpModel, pr *design.Problem, rc RobustCompile) (*RobustHandle, error) {
	rc = rc.withDefaults(pr)
	if rc.Gamma <= 0 {
		return nil, nil
	}
	locs := body.Default()
	if pr.Constraints.M > len(locs) {
		return nil, fmt.Errorf("core: robust compilation needs body geometry for all %d locations, have %d", pr.Constraints.M, len(locs))
	}
	m := mm.model
	h := &RobustHandle{Gamma: rc.Gamma, FailFrac: rc.FailFrac, PDRFloor: rc.PDRFloor, PowerRow: -1}
	vars0 := m.NumVars()
	gammaSat := math.Min(rc.Gamma, 1)
	sens := float64(pr.Radio.SensitivityDBm)
	delta := rc.LinkDeviationDB

	// Link-budget family. Each row has exactly one uncertain coefficient
	// (the path loss on n_i), so the Bertsimas–Sim inner maximum is the
	// closed form min(Γ,1)·δ·n_i and the z/p dual pair AddRobust would
	// introduce is eliminated analytically — the protection folds into
	// the n_i coefficient. The general duality lowering is reserved for
	// the multi-term power family below; carrying its tied z/p
	// auxiliaries on seven single-term rows makes the pool enumeration's
	// LP relaxations pathologically degenerate (~40× more branch nodes
	// under prune cuts for identical integer pools).
	for i := 0; i < pr.Constraints.M; i++ {
		if i == body.Chest {
			continue
		}
		pl := float64(pr.Channel.MeanPL(locs[body.Chest], locs[i]))
		bigM := pl + float64(gammaSat*delta) + 40
		e := linexpr.TermOf(mm.nVars[i], pl+float64(gammaSat*delta)+bigM)
		for k := range pr.Radio.TxModes {
			e = e.PlusTerm(mm.pVars[k], -float64(pr.Radio.TxModes[k].OutputDBm))
		}
		e = e.PlusTerm(mm.rtVar, -bigM)
		m.Add(fmt.Sprintf("robust_link_%d", i), e, linexpr.LE, bigM-sens)
		row := m.NumConstraints() - 1
		m.Protect(row)
		h.LinkRows = append(h.LinkRows, row)
	}

	// Availability family (closed-form dual, RHS-encoded Γ).
	var proxy linexpr.Expr
	for mi, n := range mm.nodeCounts {
		proxy = proxy.PlusTerm(mm.yVars[mi], (rc.PDRFloor-1)*float64(n))
	}
	m.Add("robust_avail", proxy, linexpr.LE, h.AvailRHS(rc.Gamma))
	h.AvailRow = m.NumConstraints() - 1
	m.Protect(h.AvailRow)

	// Power-budget family.
	if rc.PowerBudgetMW > 0 {
		var devs []linexpr.RobustTerm
		for _, t := range mm.objective.Terms {
			if d := rc.PowerDeviationFrac * t.Coef; d > 0 {
				devs = append(devs, linexpr.RobustTerm{Var: t.Var, Dev: d})
			}
		}
		aux := m.AddRobust("robust_power", mm.objective, rc.PowerBudgetMW, gammaSat, devs)
		h.PowerRow = aux.Row
	}
	h.AuxVars = m.NumVars() - vars0
	return h, nil
}

// buildRobustMILP lowers the problem plus the Γ-protection families.
// With rc.Gamma == 0 it is exactly buildMILP (nil handle).
func buildRobustMILP(pr *design.Problem, rc RobustCompile) (*milpModel, *RobustHandle, error) {
	mm, err := buildMILP(pr)
	if err != nil {
		return nil, nil, err
	}
	h, err := buildRobust(mm, pr, rc)
	if err != nil {
		return nil, nil, err
	}
	return mm, h, nil
}

// CompileMILPRobust lowers a problem to its Γ-protected compiled
// relaxation and returns it with the objective expression and the
// retarget handle (nil when rc.Gamma == 0 — the compilation is then
// bit-identical to CompileMILP's).
func CompileMILPRobust(pr *design.Problem, rc RobustCompile) (*linexpr.Compiled, linexpr.Expr, *RobustHandle, error) {
	mm, h, err := buildRobustMILP(pr, rc)
	if err != nil {
		return nil, linexpr.Expr{}, nil, err
	}
	return mm.model.Compile(), mm.objective, h, nil
}
