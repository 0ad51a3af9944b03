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
// channel or mutex; the atomicity here only de-duplicates the
// recording.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	ended atomic.Bool
}

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
