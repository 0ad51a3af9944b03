package obs

import (
	"testing"
	"time"
)

func TestSpanDoubleEnd(t *testing.T) {
	tc := NewTracer(0, 0).Start("")
	sp := tc.StartSpan("p")
	sp.End()
	if d := sp.End(); d != 0 {
		t.Fatalf("second End returned %v", d)
	}
	if spans := tc.Snapshot().Spans; len(spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(spans))
	}
}

func TestObservePhase(t *testing.T) {
	r := NewRegistry()
	r.Phase("construct").Observe(250 * time.Millisecond)
	r.Phase("construct").Observe(750 * time.Millisecond)
	secs := r.FloatCounter(Label("phase_seconds_total", "phase", "construct")).Value()
	if secs < 0.999 || secs > 1.001 {
		t.Fatalf("phase seconds = %g, want 1", secs)
	}
	if r.Counter(Label("phase_calls_total", "phase", "construct")).Value() != 2 {
		t.Fatal("phase calls wrong")
	}
}
