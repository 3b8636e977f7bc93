package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/radio"
)

// TestAlg1StudiesGolden pins the text of every study that runs Algorithm 1
// (R1, R2, R3, A1, A2, A5, PF) on one mini-space suite whose engine the
// Fig. 3 sweep has already filled, so a study that reads cached
// simulations must still print what standalone runs print. The second
// case swaps the radio of every problem the suite builds: A5's per-radio
// runs must not answer from the swapped radio's cached simulations.
func TestAlg1StudiesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range []struct {
		name  string
		radio func() radio.Spec
	}{
		{"paper radio", nil},
		{"nRF51822 everywhere", radio.NRF51822},
	} {
		got.WriteString("== " + c.name + " ==\n")
		s := NewSuite(Fidelity{Duration: 10, Runs: 2, Seed: 1}, &got, nil)
		s.Mutate = func(pr *design.Problem) {
			pr.Constraints.MaxNodes = 4
			if c.radio != nil {
				pr.Radio = c.radio()
			}
		}
		steps := []func() error{
			func() error { _, err := s.Fig3(""); return err },
			func() error { _, err := s.R1(nil); return err },
			func() error { _, err := s.R2(nil); return err },
			func() error { _, err := s.R3(nil, 40); return err },
			func() error { _, err := s.A1(); return err },
			func() error { _, err := s.A2(); return err },
			func() error { _, err := s.A5(); return err },
			func() error { _, err := s.PF(nil); return err },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "alg1_smoke.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Algorithm 1 studies differ from testdata/alg1_smoke.txt:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestAlg1StandaloneSimsAreEvaluationsTimesRuns pins what lets R1's sims
// column and the alg1 sims columns of R2 and R3 print Evaluations × Runs
// although the suite engine answers part of each run from its cache: a
// standalone Algorithm 1 run on a fresh engine simulates every candidate
// it evaluates exactly Runs times, at every default bound.
func TestAlg1StandaloneSimsAreEvaluationsTimesRuns(t *testing.T) {
	for _, b := range paperBounds {
		pr := design.PaperProblem(b)
		pr.Duration, pr.Runs, pr.Seed = 10, 2, 1
		pr.Constraints.MaxNodes = 4
		out, err := core.NewOptimizer(pr, core.Options{}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if out.Simulations != out.Evaluations*pr.Runs {
			t.Errorf("PDRmin %v: %d simulations, want %d evaluations × %d runs",
				b, out.Simulations, out.Evaluations, pr.Runs)
		}
	}
}
