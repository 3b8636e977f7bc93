package rng

import (
	"math"
	"testing"
)

func TestStreamDeterminism(t *testing.T) {
	s := NewSource(42)
	a := s.Stream("channel/0-1")
	b := s.Stream("channel/0-1")
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-named streams diverged at draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestStreamIndependenceByName(t *testing.T) {
	s := NewSource(42)
	a := s.Stream("mac/3")
	b := s.Stream("mac/4")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("differently named streams produced %d identical 64-bit draws", same)
	}
}

func TestSeedChangesStreams(t *testing.T) {
	a := NewSource(1).Stream("x")
	b := NewSource(2).Stream("x")
	if a.Uint64() == b.Uint64() {
		t.Error("different master seeds should change stream output")
	}
}

func TestFloat64Range(t *testing.T) {
	g := NewSource(7).Stream("u")
	for i := 0; i < 10000; i++ {
		v := g.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	g := NewSource(7).Stream("mean")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBoundsAndCoverage(t *testing.T) {
	g := NewSource(3).Stream("intn")
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		v := g.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v]++
	}
	for k := 0; k < 7; k++ {
		if seen[k] == 0 {
			t.Errorf("Intn(7) never produced %d in 10000 draws", k)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewSource(1).Stream("p").Intn(0)
}

func TestNormMomentsAndSymmetry(t *testing.T) {
	g := NewSource(11).Stream("norm")
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	g := NewSource(13).Stream("exp")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := g.Exp(2.5)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-2.5) > 0.05 {
		t.Errorf("exponential mean = %v, want ~2.5", mean)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewSource(17).Stream("uni")
	for i := 0; i < 10000; i++ {
		v := g.Uniform(-3, 9)
		if v < -3 || v >= 9 {
			t.Fatalf("Uniform(-3,9) = %v out of range", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewSource(19).Stream("perm")
	for trial := 0; trial < 50; trial++ {
		p := g.Perm(10)
		seen := make([]bool, 10)
		for _, v := range p {
			if v < 0 || v >= 10 || seen[v] {
				t.Fatalf("Perm(10) = %v is not a permutation", p)
			}
			seen[v] = true
		}
	}
}

func TestPermShuffles(t *testing.T) {
	g := NewSource(23).Stream("perm2")
	identity := 0
	for trial := 0; trial < 100; trial++ {
		p := g.Perm(8)
		id := true
		for i, v := range p {
			if i != v {
				id = false
				break
			}
		}
		if id {
			identity++
		}
	}
	if identity > 2 {
		t.Errorf("identity permutation appeared %d/100 times; shuffle looks broken", identity)
	}
}

// TestReseedMatchesStream: re-seeding a used stream in place — one that
// holds a cached Box–Muller deviate — gives exactly the generator Stream
// derives for the same name and seed.
func TestReseedMatchesStream(t *testing.T) {
	var g Stream
	g.Reseed(NewSource(7), KeyOf("other"))
	g.Norm() // leaves the spare deviate cached
	for _, seed := range []uint64{0, 1, 42} {
		src := NewSource(seed)
		g.Reseed(src, KeyOf("channel/fade/0-1"))
		want := src.Stream("channel/fade/0-1")
		for i := 0; i < 100; i++ {
			if a, b := g.Norm(), want.Norm(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d draw %d: reseeded %v, fresh %v", seed, i, a, b)
			}
		}
	}
}
