package core

import (
	"math"
	"sort"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
)

// levelSets enumerates the feasible design space of pr and groups it by
// Eq. (9) power: level k holds every point whose AnalyticPower lies
// within tol of the k-th distinct power, cheapest first.
func levelSets(pr *design.Problem, tol float64) (powers []float64, sets []map[design.Point]bool) {
	pts := pr.Points()
	sort.SliceStable(pts, func(i, j int) bool { return pr.AnalyticPower(pts[i]) < pr.AnalyticPower(pts[j]) })
	for _, p := range pts {
		pw := pr.AnalyticPower(p)
		if n := len(powers); n == 0 || pw-powers[n-1] > tol {
			powers = append(powers, pw)
			sets = append(sets, map[design.Point]bool{})
		}
		sets[len(sets)-1][p] = true
	}
	return powers, sets
}

// TestFirstPoolsMatchLevelSets is an exact oracle for the MILP stack on
// the real problem. P̃'s nominal pool sequence is the sequence of level
// sets of Eq. (9) power over the feasible design space, so the first
// three pools Algorithm 1's oracle enumerates — each followed by its
// prune cut — must decode to exactly the first three level sets of a
// brute-force enumeration of pr.Points(), on every kernel and on the
// clone path.
func TestFirstPoolsMatchLevelSets(t *testing.T) {
	const rounds, tol = 3, 1e-6
	pr := design.PaperProblem(0.9)
	powers, sets := levelSets(pr, tol)

	wantSizes := []int{16, 16, 16, 72, 72, 72, 132, 132, 132}
	if len(sets) < len(wantSizes) {
		t.Fatalf("%d level sets, want at least %d", len(sets), len(wantSizes))
	}
	for k, n := range wantSizes {
		if len(sets[k]) != n {
			t.Fatalf("level %d holds %d points, want %d", k, len(sets[k]), n)
		}
	}
	for k, want := range []float64{1.004296875, 1.02, 1.07265625} {
		if math.Abs(powers[k]-want) > 1e-9 {
			t.Fatalf("level %d at %.12g mW, want %.12g", k, powers[k], want)
		}
	}

	type solveFn func() ([]milp.PoolSolution, *milp.Solution, error)
	warm := func(opt milp.Options) func(*linexpr.Compiled) solveFn {
		return func(work *linexpr.Compiled) solveFn {
			st := milp.NewState(work, opt)
			return func() ([]milp.PoolSolution, *milp.Solution, error) { return st.SolvePool(0, tol) }
		}
	}
	paths := []struct {
		name string
		new  func(*linexpr.Compiled) solveFn
	}{
		{"state", warm(milp.Options{})},
		{"state_dense", warm(milp.Options{DenseLP: true})},
		{"state_sparse", warm(milp.Options{SparseLP: true})},
		{"state_workers2", warm(milp.Options{Workers: 2})},
		{"clone", func(work *linexpr.Compiled) solveFn {
			return func() ([]milp.PoolSolution, *milp.Solution, error) {
				return milp.SolvePool(work, milp.Options{}, 0, tol)
			}
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			mm, err := buildMILP(pr)
			if err != nil {
				t.Fatal(err)
			}
			work := mm.model.Compile()
			solve := path.new(work)
			for r := 0; r < rounds; r++ {
				pool, agg, err := solve()
				if err != nil {
					t.Fatal(err)
				}
				if agg.Status != milp.Optimal {
					t.Fatalf("round %d: status %v", r, agg.Status)
				}
				got := map[design.Point]bool{}
				for _, ps := range pool {
					got[mm.decode(ps.X)] = true
				}
				if len(got) != len(pool) || len(got) != len(sets[r]) {
					t.Fatalf("round %d: %d members (%d distinct points), level set holds %d",
						r, len(pool), len(got), len(sets[r]))
				}
				for p := range sets[r] {
					if !got[p] {
						t.Fatalf("round %d: level-set point %v missing from the pool", r, p)
					}
				}
				pruneCut(mm, work, r, agg.Objective)
			}
		})
	}
}
