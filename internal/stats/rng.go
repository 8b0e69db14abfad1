// Package stats provides the small statistical toolkit shared by the
// reproduction: a deterministic splitmix64 RNG (so every experiment in
// the paper reproduction is replayable from a seed), histograms,
// running outcome-rate curves and knee detection for the
// error-injection coverage study (Fig 9).
package stats

import "math"

// RNG is a deterministic splitmix64 pseudo-random generator. The zero
// value is a valid generator seeded with 0. It is intentionally tiny
// and allocation-free so RANSAC and the fault-injection campaign can
// embed one per trial without sharing state across goroutines.
type RNG struct {
	state uint64
}

// NewRNG returns a generator with the given seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	bound := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%bound
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the polar
// Box-Muller method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Split returns a new independent generator derived from this one.
// Useful for handing each parallel fault-injection trial its own
// stream without coordination.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Hash64 mixes an arbitrary 64-bit value through the splitmix64
// finalizer. The fault package uses it to attribute tap sites to
// register ids deterministically.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
