// Package rng provides deterministic, splittable pseudo-random number
// streams for the discrete-event simulator and the optimizers.
//
// Every stochastic component of a simulation (each channel link's fading
// process, each node's MAC backoff, each traffic source) draws from its own
// named stream derived from a single master seed, so that
//
//   - a simulation is reproducible bit-for-bit given (seed, configuration);
//   - changing one component's consumption pattern does not perturb the
//     random sequences seen by unrelated components (common random numbers
//     across design candidates, which reduces comparison variance).
//
// The generator is SplitMix64 for stream derivation and xoshiro256** for
// the streams themselves — both public-domain algorithms with good
// statistical quality and trivial stdlib-only implementations.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both to seed streams and to hash stream names.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashString folds a stream name into a 64-bit value with an FNV-1a style
// mix followed by SplitMix64 finalization.
func hashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return splitMix64(&h)
}

// Source is the master seed from which named streams are derived.
type Source struct {
	seed uint64
}

// NewSource returns a stream factory rooted at the given master seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Seed returns the master seed of the source.
func (s *Source) Seed() uint64 { return s.seed }

// Stream derives an independent generator for the given name. Calling
// Stream twice with the same name returns generators that produce identical
// sequences.
func (s *Source) Stream(name string) *Stream {
	var g Stream
	g.Reseed(s, KeyOf(name))
	return &g
}

// Key is a hashed stream name. The hash does not depend on the master
// seed, so a caller that re-derives the same named streams under many
// seeds can hash the names once.
type Key uint64

// KeyOf hashes a stream name.
func KeyOf(name string) Key { return Key(hashString(name)) }

// Reseed sets g, in place, to the generator src.Stream(name) returns for
// the name that hashes to k. A Box–Muller deviate g had cached is dropped,
// as a fresh stream has none.
func (g *Stream) Reseed(src *Source, k Key) {
	st := src.seed ^ uint64(k)
	*g = Stream{}
	// Fill the xoshiro state from SplitMix64 as recommended by its authors.
	for i := range g.state {
		g.state[i] = splitMix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if g.state[0]|g.state[1]|g.state[2]|g.state[3] == 0 {
		g.state[0] = 0x9e3779b97f4a7c15
	}
}

// Stream is a xoshiro256** generator. The zero value is not valid; obtain
// streams from Source.Stream or set one with Reseed.
type Stream struct {
	state [4]uint64
	// spare holds a cached second normal deviate from the Box-Muller pair.
	spare    float64
	hasSpare bool
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (g *Stream) Uint64() uint64 {
	result := rotl(g.state[1]*5, 7) * 9
	t := g.state[1] << 17
	g.state[2] ^= g.state[0]
	g.state[3] ^= g.state[1]
	g.state[1] ^= g.state[2]
	g.state[0] ^= g.state[3]
	g.state[2] ^= t
	g.state[3] = rotl(g.state[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (g *Stream) Float64() float64 {
	return float64(float64(g.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// modulo bias for n << 2^64 is far below simulation noise, but we still
	// use rejection sampling for exactness.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := g.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Norm returns a standard normal deviate using the Box–Muller transform.
func (g *Stream) Norm() float64 {
	if g.hasSpare {
		g.hasSpare = false
		return g.spare
	}
	var u, v, s float64
	for {
		u = float64(2*g.Float64()) - 1
		v = float64(2*g.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	g.spare = v * f
	g.hasSpare = true
	return u * f
}

// Exp returns an exponentially distributed deviate with the given mean.
func (g *Stream) Exp(mean float64) float64 {
	// 1-Float64() is in (0,1], avoiding log(0).
	return -mean * math.Log(1-g.Float64())
}

// Uniform returns a uniform deviate in [lo, hi).
func (g *Stream) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*g.Float64())
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
