// Package rng provides deterministic, seedable random number streams
// for the simulations.
//
// Reproducibility across algorithms is load-bearing here: the paper
// compares the MRHS algorithm (Alg. 2) against the original algorithm
// (Alg. 1) on the same physical system. The two algorithms consume the
// per-step standard normal vectors z_k in different orders (MRHS draws
// a block of m of them up front). Stream therefore derives an
// independent substream for each (seed, stream id) pair, so z_k is a
// pure function of the master seed and the step index k regardless of
// draw order.
//
// The generator is SplitMix64 (Steele, Lea & Flood 2014), a tiny,
// statistically solid 64-bit mixer, with normal deviates produced by
// the Box-Muller transform.
package rng

import "math"

// splitmix64 advances the state and returns the next 64-bit output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic random number stream. The zero value is
// not useful; construct with New or Substream.
type Stream struct {
	state uint64
	// Cached second Box-Muller deviate.
	spare    float64
	hasSpare bool
}

// New returns a stream seeded with the given value.
func New(seed uint64) *Stream {
	// One warm-up mix so that nearby seeds decorrelate.
	s := seed
	splitmix64(&s)
	return &Stream{state: s}
}

// Substream derives an independent stream identified by id from a
// master seed. Streams with different (seed, id) pairs are
// decorrelated by the SplitMix64 mixing function.
func Substream(seed, id uint64) *Stream {
	s := seed
	splitmix64(&s)
	// Fold the id through the mixer twice so that sequential ids do
	// not produce sequential states.
	s ^= 0x632be59bd9b4e019 * (id + 1)
	splitmix64(&s)
	return &Stream{state: s}
}

// Uint64 returns the next 64-bit value.
func (s *Stream) Uint64() uint64 {
	return splitmix64(&s.state)
}

// Float64 returns a uniform deviate in [0, 1).
func (s *Stream) Float64() float64 {
	// 53 random mantissa bits.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn requires n > 0")
	}
	// Multiply-shift rejection-free mapping is fine here; modulo bias
	// is negligible for the n used in simulations, but use Lemire's
	// unbiased method anyway.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	alo, ahi := a&mask, a>>32
	blo, bhi := b&mask, b>>32
	t := alo * blo
	lo = t & mask
	c := t >> 32
	t = ahi*blo + c
	mid := t & mask
	c = t >> 32
	t = alo*bhi + mid
	lo |= (t & mask) << 32
	hi = ahi*bhi + c + (t >> 32)
	return hi, lo
}

// Normal returns a standard normal deviate via the Box-Muller
// transform.
func (s *Stream) Normal() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u1 := s.Float64()
		if u1 == 0 {
			continue
		}
		u2 := s.Float64()
		r := math.Sqrt(-2 * math.Log(u1))
		// One range reduction for both: Sincos evaluates Sin's and Cos's
		// polynomials on the same reduced argument, bit for bit.
		sin, cos := math.Sincos(2 * math.Pi * u2)
		s.spare = r * sin
		s.hasSpare = true
		return r * cos
	}
}

// FillNormal fills x with independent standard normal deviates.
func (s *Stream) FillNormal(x []float64) {
	for i := range x {
		x[i] = s.Normal()
	}
}

// NormalVector returns a fresh slice of n standard normal deviates
// drawn from the substream (seed, id). This is how the simulation
// obtains z_k: id is the time-step index, so the vector depends only
// on (seed, k).
func NormalVector(seed, id uint64, n int) []float64 {
	x := make([]float64, n)
	Substream(seed, id).FillNormal(x)
	return x
}
