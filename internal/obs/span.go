package obs

import (
	"sync/atomic"
	"time"
)

// Span is a started phase timer. End records the elapsed wall time
// into the registry's phase metrics (when the span came from a
// Registry) and/or into an attached request trace (when it came from
// a Trace or was attached with Attach).
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
	reg   *Registry
	tr    *Trace
	name  string
	start time.Time
	ended atomic.Bool
}

// StartSpan begins timing a phase recorded into the registry.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{reg: r, name: name, start: time.Now()}
}

// Name returns the span's full phase path.
func (s *Span) Name() string { return s.name }

// Attach routes the span's recording into tr as well. Attach before
// sharing the span with another goroutine; it is not synchronized.
func (s *Span) Attach(tr *Trace) *Span {
	s.tr = tr
	return s
}

// Handoff marks the point where span ownership moves to another
// goroutine and returns the span for the receiver. The span's fields
// are published by whatever synchronization carries the span across
// (channel send, mutex); Handoff exists so the transfer is explicit
// at the call site, and so the receiving side may safely race End
// against a late End from the originating side — the atomic end
// guarantees a single recording.
func (s *Span) Handoff() *Span { return s }

// StartChild begins a nested phase named parent/name, recording to
// the same registry and trace. The child may outlive the parent's
// End; only its own interval is recorded.
func (s *Span) StartChild(name string) *Span {
	return &Span{reg: s.reg, tr: s.tr, name: s.name + "/" + name, start: time.Now()}
}

// End stops the span and records its duration under
// phase_seconds_total{phase="<path>"} and
// phase_calls_total{phase="<path>"}, and as a trace span when a trace
// is attached. Ending more than once — including concurrently from
// two goroutines — records only the first interval; later calls
// return zero.
func (s *Span) End() time.Duration {
	if !s.ended.CompareAndSwap(false, true) {
		return 0
	}
	d := time.Since(s.start)
	if s.reg != nil {
		s.reg.ObservePhase(s.name, d)
	}
	if s.tr != nil {
		s.tr.addSpan(s.name, s.start, d)
	}
	return d
}

// ObservePhase records an externally measured duration under the
// phase metrics — the non-span entry point used by code that already
// times its phases (core.Runner's Timings).
func (r *Registry) ObservePhase(phase string, d time.Duration) {
	r.FloatCounter(Label("phase_seconds_total", "phase", phase)).Add(d.Seconds())
	r.Counter(Label("phase_calls_total", "phase", phase)).Inc()
}
