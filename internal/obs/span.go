package obs

import (
	"sync/atomic"
	"time"
)

// Span is a started phase timer of a request trace (Trace.StartSpan).
// End records the elapsed wall time into the trace.
//
// A span may cross goroutines: the serve pipeline starts a request's
// queue-wait span on the submitting goroutine and ends it on the
// dispatcher goroutine. End is atomic — when two goroutines race to
// end the same span (a canceled submitter and the dispatcher both
// closing it out), exactly one records and the other gets zero. The
// handoff itself must still be published through a synchronized
// channel or mutex (Handoff documents the transfer point); the
// atomicity here only de-duplicates the recording.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	ended atomic.Bool
}

// Handoff marks the point where span ownership moves to another
// goroutine and returns the span for the receiver. The span's fields
// are published by whatever synchronization carries the span across
// (channel send, mutex); Handoff exists so the transfer is explicit
// at the call site, and so the receiving side may safely race End
// against a late End from the originating side — the atomic end
// guarantees a single recording.
func (s *Span) Handoff() *Span { return s }

// End stops the span and records its duration as a span of its trace.
// Ending more than once — including concurrently from two goroutines —
// records only the first interval; later calls return zero.
func (s *Span) End() time.Duration {
	if !s.ended.CompareAndSwap(false, true) {
		return 0
	}
	d := time.Since(s.start)
	s.tr.addSpan(s.name, s.start, d)
	return d
}

// Phase is one phase's metrics, phase_seconds_total and
// phase_calls_total under its label, resolved once — the non-span
// entry point for code that already times its phases (core.Runner's
// Timings), which then formats no metric name per observation.
type Phase struct {
	seconds *FloatCounter
	calls   *Counter
}

// Phase resolves the metrics of phase in r.
func (r *Registry) Phase(phase string) *Phase {
	return &Phase{
		seconds: r.FloatCounter(Label("phase_seconds_total", "phase", phase)),
		calls:   r.Counter(Label("phase_calls_total", "phase", phase)),
	}
}

// Observe records an externally measured duration of the phase.
func (p *Phase) Observe(d time.Duration) {
	p.seconds.Add(d.Seconds())
	p.calls.Inc()
}
