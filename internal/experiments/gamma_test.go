package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hiopt/internal/core"
)

// TestGammaProposeBeatsScreenAndCut pins the Γ-robust acceptance
// criterion at quick fidelity with k = 1 worst-case faults: the
// Γ-protected proposer reaches a robust-feasible design in strictly
// fewer Algorithm 1 iterations than screen-and-cut.
//
// Screen-and-cut (Γ = 0) walks the nominal power classes in nominal
// order — the paper chain 1.0043/1.02/1.0727 mW, then the N = 5
// classes — and the k = 1 fault verifier rejects every nominally
// feasible candidate it proposes (a single node failure caps the
// network PDR below the 0.83 robust floor for every N = 4 design, and
// the nominal proposer has no reason to leave the cheap classes).
// Γ = 1 compiles the availability floor N >= Γ(1−φ)/(1−0.83) ⇒ N >= 5
// and the protected link budget into the relaxation itself, so the
// under-provisioned classes are never proposed: the first
// robust-feasible candidates appear in its second pool.
func TestGammaProposeBeatsScreenAndCut(t *testing.T) {
	var b bytes.Buffer
	s := NewSuite(Quick, &b, nil)
	s.Adaptive = true

	// Γ = 0 runs first: its pools are the small nominal classes, and the
	// shared engine memoizes every (point, scenario) verdict for the
	// Γ = 1 run's verifier. Four rounds cover the full paper chain plus
	// the first N = 5 class; the dry-run reference needs eight rounds to
	// even reach the class where robust-feasible designs live, so any
	// budget here documents "strictly more iterations than Γ = 1".
	screen, err := s.Gamma([]float64{0}, 0.83, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(screen) != 1 {
		t.Fatalf("want one Γ=0 row, got %d", len(screen))
	}
	sc := screen[0]
	if sc.Status != core.StatusBudgetExceeded {
		t.Fatalf("Γ=0 status %v, want budget-exceeded (screen-and-cut must not converge)", sc.Status)
	}
	if sc.ItersToFirstRobust != 0 {
		t.Fatalf("Γ=0 found a robust-feasible design at iteration %d; the screen baseline must find none", sc.ItersToFirstRobust)
	}
	if sc.RobustRejected == 0 {
		t.Fatal("Γ=0 rejected no nominally feasible candidate: the fault screen never engaged")
	}

	csvPath := filepath.Join(t.TempDir(), "gamma.csv")
	propose, err := s.Gamma([]float64{1}, 0.83, 2, csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(propose) != 1 {
		t.Fatalf("want one Γ=1 row, got %d", len(propose))
	}
	pr := propose[0]
	if pr.ItersToFirstRobust != 2 {
		t.Fatalf("Γ=1 first robust-feasible at iteration %d, want 2", pr.ItersToFirstRobust)
	}
	if pr.Best == "" {
		t.Fatal("Γ=1 selected no design")
	}
	if pr.WorstPDR < 0.83-0.001 {
		t.Fatalf("Γ=1 selection's worst-case PDR %.4f breaches the 0.83 floor", pr.WorstPDR)
	}
	if pr.PowerMW <= 0 {
		t.Fatalf("Γ=1 selection has no power figure: %+v", pr)
	}
	// The robustness premium: the protected selection must cost more
	// than the nominal optimum it displaces.
	if pr.PowerMW <= 1.07265625 {
		t.Fatalf("Γ=1 selection at %.6f mW is not above the nominal optimum", pr.PowerMW)
	}

	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("gamma CSV: want header + 1 row, got %d lines:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "gamma,status,best") {
		t.Fatalf("gamma CSV header: %q", lines[0])
	}
	if !strings.Contains(b.String(), "Γ-robust proposer vs screen-and-cut") {
		t.Fatalf("study banner missing from output:\n%s", b.String())
	}
}
