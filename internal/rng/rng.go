// Package rng supplies the deterministic randomness used throughout the
// reproduction. Every stochastic component (workload generators, network
// jitter, graph construction) draws from an rng.Source seeded explicitly, so
// a (seed, parameters) pair fully determines an experiment.
//
// The generator is PCG-XSH-RR (64/32) with a 64-bit stream selector; Split
// derives independent child streams so concurrent components never share
// state.
package rng

import "math"

// Source is a deterministic pseudo-random source with distribution helpers.
// It is not safe for concurrent use; derive per-goroutine children with
// Split.
type Source struct {
	state uint64
	inc   uint64
}

// New returns a Source seeded from seed on the default stream.
func New(seed uint64) *Source {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a Source on an explicit stream; distinct streams with the
// same seed are statistically independent.
func NewStream(seed, stream uint64) *Source {
	s := new(Source)
	s.Reset(seed, stream)
	return s
}

// Reset re-seeds s in place: afterwards it draws exactly what
// NewStream(seed, stream) would, without allocating. Pooled simulation
// entities keep their Source by value and Reset it for each reuse.
func (s *Source) Reset(seed, stream uint64) {
	s.inc = stream<<1 | 1
	s.state = 0
	s.next()
	s.state += seed
	s.next()
}

// Split derives a child source whose stream is keyed by label. Children are
// independent of the parent and of each other for distinct labels.
func (s *Source) Split(label string) *Source {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewStream(s.Uint64(), h)
}

func (s *Source) next() uint32 {
	old := s.state
	s.state = old*6364136223846793005 + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	return uint64(s.next())<<32 | uint64(s.next())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire rejection.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Avoid modulo bias: rejection sample on the top range.
	threshold := -n % n
	for {
		v := s.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller).
func (s *Source) Normal(mean, stddev float64) float64 {
	var u, v float64
	for u == 0 {
		u = s.Float64()
	}
	v = s.Float64()
	z := math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)); mu and sigma parameterize the
// underlying normal, not the resulting distribution's mean.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Poisson returns a Poisson draw with the given mean, using inversion for
// small means and normal approximation above 500 (workload day counts never
// need exact tails there).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf draws from a bounded Zipf distribution over {0, …, n-1} with exponent
// alpha > 0 (probability of rank r proportional to 1/(r+1)^alpha). It uses a
// precomputed CDF; construct once via NewZipf for repeated draws.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf builds a Zipf sampler over n ranks with exponent alpha.
func NewZipf(src *Source, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// Draw returns a rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
