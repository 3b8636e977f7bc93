package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFRSmokeCSVGolden pins the ε-constraint front CSV of the
// pareto-smoke settings (hisweep -pareto -duration 10 -bounds
// 0.5,0.65,0.8) byte for byte: the chosen designs, their simulated
// metrics, the pivots each bound solved and the dominance flags. The
// study is run twice on one suite: the second run finds every class in
// the suite engine's ledger and every design in its cache, and must
// still write the same CSV, pivots included.
func TestFRSmokeCSVGolden(t *testing.T) {
	s, _ := newTestSuite()
	want, err := os.ReadFile(filepath.Join("testdata", "fr_smoke.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"cold", "ledger-warm"} {
		path := filepath.Join(t.TempDir(), "fr.csv")
		if _, err := s.FR([]float64{0.5, 0.65, 0.8}, 0, path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: FR CSV differs from testdata/fr_smoke.csv:\n got:\n%s\nwant:\n%s", run, got, want)
		}
	}
}
