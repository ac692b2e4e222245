// Package rng provides the deterministic pseudo-random streams used to
// simulate run-to-run measurement variability.
//
// Every noise source in the simulator is derived from a SplitMix64 stream
// keyed by (seed, label), so that adding a new experiment or reordering
// benchmark runs never perturbs the noise of existing ones. This is the
// property that makes the whole reproduction bit-for-bit stable.
package rng

import "math"

// splitmix64 advances the state and returns the next 64-bit value.
// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
// generators" (the standard SplitMix64 finalizer).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash folds a label into a 64-bit key (FNV-1a). String and byte labels
// with the same bytes hash alike, so a label built in a byte buffer keys
// the same stream as its string form.
func Hash[T string | []byte](label T) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return h
}

// Stream is a deterministic random stream. The zero value is a valid stream
// keyed by seed 0 and the empty label.
type Stream struct {
	state uint64
}

// Keyed returns, by value, the stream New(seed, label) returns for a label
// with key Hash(label). Hot paths use it to hash a label once, or to key a
// stream without allocating.
func Keyed(seed, key uint64) Stream {
	s := Stream{state: seed ^ key}
	// Warm up so that closely related keys diverge immediately.
	splitmix64(&s.state)
	return s
}

// New returns a stream keyed by seed and label. Streams with different
// labels are statistically independent.
func New(seed uint64, label string) *Stream {
	s := Keyed(seed, Hash(label))
	return &s
}

// Derive returns a child stream keyed by an extra label, leaving s untouched.
func (s *Stream) Derive(label string) *Stream {
	c := s.DeriveKeyed(Hash(label))
	return &c
}

// DeriveKeyed returns, by value, the child Derive(label) returns for a
// label with key Hash(label), leaving s untouched.
func (s *Stream) DeriveKeyed(key uint64) Stream { return Keyed(s.state, key) }

// Uint64 returns the next raw 64-bit value.
func (s *Stream) Uint64() uint64 { return splitmix64(&s.state) }

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Normal returns a standard normal variate (Box–Muller, one value per call).
func (s *Stream) Normal() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := s.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Jitter returns a multiplicative noise factor 1 + N(0, rel), clamped to
// [1-4rel, 1+4rel] so a single unlucky draw cannot produce a wild outlier.
// rel = 0 returns exactly 1.
func (s *Stream) Jitter(rel float64) float64 {
	if rel == 0 {
		return 1
	}
	f := 1 + rel*s.Normal()
	lo, hi := 1-4*rel, 1+4*rel
	if f < lo {
		f = lo
	}
	if f > hi {
		f = hi
	}
	return f
}
