package cluster

import (
	"time"

	"repro/internal/rng"
)

// Backoff is the retry policy of the fault-tolerant transport: how
// long a sender waits between delivery attempts of one halo message,
// how many attempts it makes, and how long a receiver waits before
// declaring a peer unreachable.
//
// Waits grow exponentially (Base * Factor^retry), are capped at Max,
// and carry a deterministic jitter of ±Jitter drawn from (Seed, seq,
// attempt) — so two runs with the same seed retry on exactly the same
// schedule, which keeps chaos runs reproducible.
type Backoff struct {
	// Base is the wait before the first retry. Default 200µs (the
	// simulated fabric's timescale, not a real network's).
	Base time.Duration
	// Max caps every wait, jitter included. Default 10ms.
	Max time.Duration
	// Factor is the exponential growth rate. Default 2.
	Factor float64
	// Jitter is the relative jitter amplitude in [0, 1). Default 0.2;
	// set negative for no jitter.
	Jitter float64
	// MaxAttempts is the delivery attempts per message before the
	// sender gives up. Default 8.
	MaxAttempts int
	// Deadline bounds each blocking receive; on expiry the receiver
	// reports a timeout fault. Default 2s.
	Deadline time.Duration
	// Seed drives the jitter.
	Seed uint64
}

// WithDefaults fills unset fields.
func (b Backoff) WithDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 200 * time.Microsecond
	}
	if b.Max <= 0 {
		b.Max = 10 * time.Millisecond
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	switch {
	case b.Jitter < 0:
		b.Jitter = 0
	case b.Jitter == 0 || b.Jitter >= 1:
		b.Jitter = 0.2
	}
	if b.MaxAttempts <= 0 {
		b.MaxAttempts = 8
	}
	if b.Deadline <= 0 {
		b.Deadline = 2 * time.Second
	}
	return b
}

// Wait returns the wait before retry attempt (1-based: attempt 1
// follows the first failed delivery) of message seq. The result is
// deterministic in (Seed, seq, attempt) and never exceeds Max.
func (b Backoff) Wait(seq int64, attempt int) time.Duration {
	b = b.WithDefaults()
	if attempt < 1 {
		attempt = 1
	}
	w := float64(b.Base)
	for i := 1; i < attempt; i++ {
		w *= b.Factor
		if w >= float64(b.Max) {
			w = float64(b.Max)
			break
		}
	}
	if b.Jitter > 0 {
		h := uint64(seq)*0x9E3779B97F4A7C15 + uint64(attempt)
		h ^= h >> 29
		u := rng.Substream(b.Seed, h).Float64() // deterministic in (Seed, seq, attempt)
		w *= 1 + b.Jitter*(2*u-1)
	}
	if w > float64(b.Max) {
		w = float64(b.Max)
	}
	if w < 1 {
		w = 1
	}
	return time.Duration(w)
}

// Schedule returns the full retry schedule of message seq: the waits
// before retries 1..MaxAttempts-1.
func (b Backoff) Schedule(seq int64) []time.Duration {
	b = b.WithDefaults()
	out := make([]time.Duration, 0, b.MaxAttempts-1)
	for a := 1; a < b.MaxAttempts; a++ {
		out = append(out, b.Wait(seq, a))
	}
	return out
}
