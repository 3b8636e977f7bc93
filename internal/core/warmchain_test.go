package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
)

// intKey fingerprints a pool member by its integer-variable assignment
// (no-good enumeration distinguishes members exactly by these bits).
func intKey(p *linexpr.Compiled, x []float64) string {
	b := make([]byte, 0, p.NumVars)
	for j := 0; j < p.NumVars; j++ {
		if !p.Integer[j] {
			continue
		}
		if x[j] > 0.5 {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	return string(b)
}

func sortedKeys(p *linexpr.Compiled, pool []milp.PoolSolution) []string {
	keys := make([]string, len(pool))
	for i, ps := range pool {
		keys[i] = intKey(p, ps.X)
	}
	sort.Strings(keys)
	return keys
}

// TestPaperChainWarmMatchesCold drives the first three Algorithm 1 MILP
// iterations of the paper problem — SolvePool, prune cut, SolvePool — on
// the persistent warm State and on the clone-based cold path. Objectives
// are pinned to the captured baseline, pools must match as sets, and the
// warm path must spend at least 2x fewer simplex pivots (the tentpole
// speedup this PR exists for).
func TestPaperChainWarmMatchesCold(t *testing.T) {
	wantObj := []float64{1.004296875, 1.02, 1.07265625}
	wantPool := []int{16, 16, 16}

	type chain struct {
		obj    []float64
		keys   [][]string
		pivots int
		nodes  int
	}
	runChain := func(warm bool) chain {
		pr := design.PaperProblem(0.9)
		mm, err := buildMILP(pr)
		if err != nil {
			t.Fatal(err)
		}
		work := mm.model.Compile()
		var st *milp.State
		if warm {
			st = milp.NewState(work, milp.Options{})
			if st.Legacy() {
				t.Fatal("paper problem fell back to legacy path")
			}
		}
		var c chain
		for iter := 0; iter < len(wantObj); iter++ {
			var pool []milp.PoolSolution
			var agg *milp.Solution
			var err error
			if warm {
				pool, agg, err = st.SolvePool(0, 1e-6)
			} else {
				pool, agg, err = milp.SolvePool(work, milp.Options{}, 0, 1e-6)
			}
			if err != nil {
				t.Fatal(err)
			}
			if agg.Status != milp.Optimal {
				t.Fatalf("warm=%v iter %d: status %v", warm, iter, agg.Status)
			}
			for i, ps := range pool {
				if err := milp.CheckFeasible(work, ps.X, 1e-6); err != nil {
					t.Fatalf("warm=%v iter %d member %d: %v", warm, iter, i, err)
				}
			}
			c.obj = append(c.obj, agg.Objective)
			c.keys = append(c.keys, sortedKeys(work, pool))
			c.pivots += agg.LPIterations
			c.nodes += agg.Nodes
			work.AddExprRow(fmt.Sprintf("prune_%d", iter), mm.objective, linexpr.GE, agg.Objective+1e-4)
		}
		return c
	}

	cold := runChain(false)
	warm := runChain(true)

	for i := range wantObj {
		if math.Abs(cold.obj[i]-wantObj[i]) > 1e-9 {
			t.Errorf("iter %d: cold obj %.10g, pinned %.10g", i, cold.obj[i], wantObj[i])
		}
		if math.Abs(warm.obj[i]-wantObj[i]) > 1e-9 {
			t.Errorf("iter %d: warm obj %.10g, pinned %.10g", i, warm.obj[i], wantObj[i])
		}
		if len(warm.keys[i]) != wantPool[i] || len(cold.keys[i]) != wantPool[i] {
			t.Fatalf("iter %d: pool sizes warm=%d cold=%d, pinned %d",
				i, len(warm.keys[i]), len(cold.keys[i]), wantPool[i])
		}
		for k := range warm.keys[i] {
			if warm.keys[i][k] != cold.keys[i][k] {
				t.Fatalf("iter %d: pool sets differ at %d: %s vs %s",
					i, k, warm.keys[i][k], cold.keys[i][k])
			}
		}
	}
	if warm.pivots*2 > cold.pivots {
		t.Errorf("warm chain used %d pivots vs cold %d: want >= 2x reduction",
			warm.pivots, cold.pivots)
	}
	t.Logf("pivots: warm=%d cold=%d (%.1fx), nodes: warm=%d cold=%d",
		warm.pivots, cold.pivots, float64(cold.pivots)/float64(warm.pivots),
		warm.nodes, cold.nodes)
}

// TestWarmPoolDeepChainComplete drives the persistent warm state through
// the PDRmin=1.0 prune chain — deep enough that accumulated tableau
// drift once tripped mid-call stale rebuilds — and pins every pool size
// against the clone-based baseline. Before warmPool discarded and redid
// stale-marked calls, the iteration-7 pool silently lost 21 of its 132
// slab members to subtrees a drifted basis falsely closed.
func TestWarmPoolDeepChainComplete(t *testing.T) {
	wantPool := []int{16, 16, 16, 72, 72, 72, 132, 132}
	pr := design.PaperProblem(1.0)
	mm, err := buildMILP(pr)
	if err != nil {
		t.Fatal(err)
	}
	work := mm.model.Compile()
	st := milp.NewState(work, milp.Options{})
	if st.Legacy() {
		t.Fatal("paper problem fell back to legacy path")
	}
	for iter, want := range wantPool {
		pool, agg, err := st.SolvePool(0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Status != milp.Optimal {
			t.Fatalf("iter %d: status %v", iter, agg.Status)
		}
		if len(pool) != want {
			t.Errorf("iter %d: pool size %d, want %d", iter, len(pool), want)
		}
		for i, ps := range pool {
			if err := milp.CheckFeasible(work, ps.X, 1e-6); err != nil {
				t.Fatalf("iter %d member %d: %v", iter, i, err)
			}
		}
		work.AddExprRow(fmt.Sprintf("prune_%d", iter), mm.objective, linexpr.GE, agg.Objective+1e-4)
	}
}

// coldChain makes Algorithm 1's oracle calls for o the way the
// clone-based kernel answers them: calls rounds of milp.SolvePool on the
// arena RunCtx compiles, each after the previous class's prune cut, with
// every pool verified and decoded as a run does it. Nothing is kept
// between calls, so this is the from-scratch reference the warm class
// record must match. It stops early at an exhausted class.
func coldChain(t *testing.T, o *Optimizer, calls int) []*oracleClass {
	t.Helper()
	mm, work, err := o.relaxation()
	if err != nil {
		t.Fatal(err)
	}
	var classes []*oracleClass
	for i := 0; i < calls; i++ {
		if i > 0 {
			pruneCut(mm, work, i-1, classes[i-1].pStar)
		}
		c, err := o.solveClass(mm, work, func() ([]milp.PoolSolution, *milp.Solution, error) {
			return milp.SolvePool(work, milp.Options{}, o.Options.PoolLimit, 1e-6)
		})
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, c)
		if c.exhausted {
			break
		}
	}
	return classes
}

// pointKeys lists the design points' keys in ascending order.
func pointKeys(points []design.Point) []uint32 {
	keys := make([]uint32, len(points))
	for i, p := range points {
		keys[i] = p.Key()
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}

// TestRunWarmMatchesColdChain runs full Algorithm 1 at reduced fidelity on
// the warm class record and replays the same oracle calls on the cold
// clone-based chain. Every round must propose the same pool set at the
// same P̄* (within 1e-9), and the call that ended the warm run must end
// the cold chain too: an exhausted class, or one the α bound rejects
// against the warm incumbent.
func TestRunWarmMatchesColdChain(t *testing.T) {
	o := NewOptimizer(fastProblem(0.7), Options{})
	warm, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Best == nil {
		t.Fatalf("warm run found no design (status %v)", warm.Status)
	}
	// The run made one oracle call per round plus the call whose class
	// ended it (MILP exhaustion or the α stop).
	calls := len(warm.Iterations) + 1
	cold := coldChain(t, NewOptimizer(fastProblem(0.7), Options{}), calls)
	if len(cold) != calls {
		t.Fatalf("cold chain made %d calls, the warm run %d", len(cold), calls)
	}
	for i, it := range warm.Iterations {
		c := cold[i]
		if c.exhausted || c.err != nil {
			t.Fatalf("round %d: cold class exhausted=%v err=%v", i, c.exhausted, c.err)
		}
		// P̄* is a simplex tableau result: the warm pivot sequence rounds
		// the last ~3 bits differently, which %.4f reporting and the
		// 1e-4 mW prune margin both swallow. The pools must match exactly.
		if math.Abs(it.PBarStar-c.pStar) > 1e-9*(1+math.Abs(c.pStar)) {
			t.Errorf("round %d: P̄* warm=%v cold=%v", i, it.PBarStar, c.pStar)
		}
		points := make([]design.Point, len(it.Candidates))
		for k, cand := range it.Candidates {
			points[k] = cand.Point
		}
		if w, c := pointKeys(points), pointKeys(c.points); !reflect.DeepEqual(w, c) {
			t.Errorf("round %d: pool sets differ: warm %v, cold %v", i, w, c)
		}
		if c.agg.WarmSolves != 0 || c.agg.ColdSolves != 0 {
			t.Errorf("round %d: cold class recorded warm-state solves %d/%d", i, c.agg.WarmSolves, c.agg.ColdSolves)
		}
	}
	last := cold[len(cold)-1]
	switch {
	case warm.TerminatedByAlpha:
		if last.exhausted || last.pStar/o.alpha(warm.Best.Point) <= warm.Best.PowerMW {
			t.Errorf("the α bound stopped the warm run, but not at the cold chain's last class (P̄*=%v, exhausted=%v)", last.pStar, last.exhausted)
		}
	case !last.exhausted:
		t.Error("the warm run ended on MILP exhaustion, the cold chain did not")
	}
	if warm.MILPWarmSolves == 0 {
		t.Error("warm run recorded no warm solves")
	}
}

// TestPaperChainKernelModes re-runs the pinned three-iteration paper
// chain under every kernel and worker mode the warm state supports —
// sparse revised simplex, dense tableau, and parallel subtree dives —
// and requires the exact pinned objectives and identical pool sets
// from all of them. This is the cross-kernel acceptance gate: neither
// the sparse kernel, presolve, nor the parallel enumeration may move a
// single pool member on the paper problem.
func TestPaperChainKernelModes(t *testing.T) {
	wantObj := []float64{1.004296875, 1.02, 1.07265625}
	wantPool := []int{16, 16, 16}

	modes := []struct {
		name string
		opt  milp.Options
	}{
		{"auto", milp.Options{}},
		{"sparse", milp.Options{SparseLP: true}},
		{"dense", milp.Options{DenseLP: true}},
		{"sparse_w1", milp.Options{SparseLP: true, Workers: 1}},
		{"sparse_w4", milp.Options{SparseLP: true, Workers: 4}},
		{"dense_w4", milp.Options{DenseLP: true, Workers: 4}},
	}
	var ref [][]string
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			pr := design.PaperProblem(0.9)
			mm, err := buildMILP(pr)
			if err != nil {
				t.Fatal(err)
			}
			work := mm.model.Compile()
			st := milp.NewState(work, mode.opt)
			var keys [][]string
			for iter := 0; iter < len(wantObj); iter++ {
				pool, agg, err := st.SolvePool(0, 1e-6)
				if err != nil {
					t.Fatal(err)
				}
				if agg.Status != milp.Optimal {
					t.Fatalf("iter %d: status %v", iter, agg.Status)
				}
				if math.Abs(agg.Objective-wantObj[iter]) > 1e-9 {
					t.Fatalf("iter %d: obj %.10g, pinned %.10g", iter, agg.Objective, wantObj[iter])
				}
				if len(pool) != wantPool[iter] {
					t.Fatalf("iter %d: %d pool members, pinned %d", iter, len(pool), wantPool[iter])
				}
				// The paper arena is below the automatic switch, so only a
				// forced sparse kernel takes sparse pivots, and then all.
				want := 0
				if mode.opt.SparseLP {
					want = agg.LPIterations
				}
				if agg.SparsePivots != want {
					t.Fatalf("iter %d: %d of %d pivots on sparse kernels, want %d", iter, agg.SparsePivots, agg.LPIterations, want)
				}
				for i, ps := range pool {
					if err := milp.CheckFeasible(work, ps.X, 1e-6); err != nil {
						t.Fatalf("iter %d member %d: %v", iter, i, err)
					}
				}
				keys = append(keys, sortedKeys(work, pool))
				work.AddExprRow(fmt.Sprintf("prune_%d", iter), mm.objective, linexpr.GE, agg.Objective+1e-4)
			}
			if ref == nil {
				ref = keys
				return
			}
			for i := range keys {
				for k := range keys[i] {
					if keys[i][k] != ref[i][k] {
						t.Fatalf("iter %d: pool member %d differs from reference mode: %s vs %s",
							i, k, keys[i][k], ref[i][k])
					}
				}
			}
		})
	}
}
