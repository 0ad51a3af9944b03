package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceLifecycle(t *testing.T) {
	tr := NewTracer(8, 4)
	tc := tr.Start("req-1")
	if got := tc.ID(); got != "req-1" {
		t.Fatalf("ID = %q", got)
	}
	if tr.ActiveCount() != 1 {
		t.Fatalf("active = %d, want 1", tr.ActiveCount())
	}

	sp := tc.StartSpan("queue_wait")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatal("span recorded no duration")
	}
	tc.StartSpan("solve").End()
	tc.Event("dispatched", map[string]any{"batch": 3})
	tc.SetAttr("kernel_m", int64(8))
	tc.AddInt("cg_iterations", 7)
	tc.AddInt("cg_iterations", 4)
	tc.Finish()

	if tr.ActiveCount() != 0 {
		t.Fatalf("active after Finish = %d", tr.ActiveCount())
	}
	td, ok := tr.Get("req-1")
	if !ok {
		t.Fatal("finished trace not retrievable by ID")
	}
	if !td.Done || td.DurUS <= 0 {
		t.Fatalf("snapshot done=%v dur=%d", td.Done, td.DurUS)
	}
	if len(td.Spans) != 2 {
		t.Fatalf("spans = %+v, want queue_wait + solve", td.Spans)
	}
	if td.Spans[0].Name != "queue_wait" || td.Spans[0].DurUS < 1000 {
		t.Fatalf("queue_wait span = %+v", td.Spans[0])
	}
	if td.Attrs["kernel_m"] != int64(8) || td.Attrs["cg_iterations"] != int64(11) {
		t.Fatalf("attrs = %+v", td.Attrs)
	}
	if len(td.Events) != 1 || td.Events[0].Msg != "dispatched" {
		t.Fatalf("events = %+v", td.Events)
	}

	// Recordings after Finish are dropped, not crashed.
	tc.SetAttr("late", true)
	tc.Event("late", nil)
	tc.StartSpan("late").End()
	td2, _ := tr.Get("req-1")
	if len(td2.Spans) != 2 || td2.Attrs["late"] != nil {
		t.Fatal("post-Finish recordings leaked into the trace")
	}
}

func TestTracerRingEvictionAndSlowestRetention(t *testing.T) {
	tr := NewTracer(4, 2)
	// The slow trace finishes first, then a flood of fast ones evicts
	// it from the recent ring; the slowest-N list must still hold it.
	slow := tr.Start("slow")
	time.Sleep(5 * time.Millisecond)
	slow.Finish()
	for i := 0; i < 10; i++ {
		tr.Start(fmt.Sprintf("fast-%d", i)).Finish()
	}

	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("recent = %d entries, want ring cap 4", len(recent))
	}
	if recent[0].ID != "fast-9" {
		t.Fatalf("recent[0] = %s, want newest-first", recent[0].ID)
	}
	for _, s := range recent {
		if s.ID == "slow" {
			t.Fatal("slow trace should have been evicted from the ring")
		}
	}

	slowest := tr.Slowest()
	if len(slowest) != 2 || slowest[0].ID != "slow" {
		t.Fatalf("slowest = %+v, want slow first", slowest)
	}
	// And Get still finds it through the slow list.
	if _, ok := tr.Get("slow"); !ok {
		t.Fatal("evicted-but-slow trace not retrievable")
	}
	if n := len(tr.Recent(2)); n != 2 {
		t.Fatalf("Recent(2) = %d entries", n)
	}
}

func TestTracerNewIDUnique(t *testing.T) {
	tr := NewTracer(0, 0)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := tr.NewID()
		if seen[id] {
			t.Fatalf("duplicate ID %s", id)
		}
		seen[id] = true
	}
}

func TestTraceContext(t *testing.T) {
	if TraceFrom(nil) != nil || TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom must be nil-safe")
	}
	tr := NewTracer(0, 0)
	tc := tr.Start("")
	if tc.ID() == "" {
		t.Fatal("empty ID not generated")
	}
	ctx := ContextWithTrace(context.Background(), tc)
	if TraceFrom(ctx) != tc {
		t.Fatal("trace did not round-trip through context")
	}
	tc.Finish()
}

func TestTracerSink(t *testing.T) {
	tr := NewTracer(0, 0)
	var got []TraceData
	tr.SetSink(func(td TraceData) { got = append(got, td) })
	tc := tr.Start("sunk")
	tc.SetAttr("k", int64(1))
	tc.Finish()
	tr.SetSink(nil)
	tr.Start("unsunk").Finish()
	if len(got) != 1 || got[0].ID != "sunk" || !got[0].Done {
		t.Fatalf("sink got %+v", got)
	}
}

// TestSpanHandoffConcurrentEnd pins the cross-goroutine span
// contract: a span started on one goroutine, handed off, and ended
// concurrently by both sides must record exactly once. Run under
// -race (make race-kernels), this is the regression test for the
// batcher's submitter/dispatcher handoff.
func TestSpanHandoffConcurrentEnd(t *testing.T) {
	tracer := NewTracer(0, 0)
	for i := 0; i < 100; i++ {
		tc := tracer.Start("")
		sp := tc.StartSpan("handoff_phase")
		ch := make(chan *Span, 1)
		ch <- sp
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); (<-ch).End() }()
		go func() { defer wg.Done(); sp.End() }()
		wg.Wait()
		tc.Finish()
		td, _ := tracer.Get(tc.ID())
		if len(td.Spans) != 1 {
			t.Fatalf("iteration %d: double-End recorded %d trace spans", i, len(td.Spans))
		}
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTracer(64, 8)
	tc := tr.Start("concurrent")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tc.AddInt("n", 1)
				tc.StartSpan(fmt.Sprintf("g%d", g)).End()
				tc.Event("e", map[string]any{"g": g})
				_ = tc.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	tc.Finish()
	td, _ := tr.Get("concurrent")
	if td.Attrs["n"] != int64(400) || len(td.Spans) != 400 || len(td.Events) != 400 {
		t.Fatalf("n=%v spans=%d events=%d, want 400 each", td.Attrs["n"], len(td.Spans), len(td.Events))
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewRegistry().Histogram("lat", []float64{1, 10})
	h.Observe(0.5) // no exemplar
	h.ObserveExemplar(5, "trace-a")
	h.ObserveExemplar(7, "trace-b") // replaces trace-a in the same bucket
	h.ObserveExemplar(100, "trace-tail")

	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("exemplars = %+v", ex)
	}
	if ex[0] != nil {
		t.Fatalf("bucket 0 has unexpected exemplar %+v", ex[0])
	}
	if ex[1] == nil || ex[1].TraceID != "trace-b" || ex[1].Value != 7 {
		t.Fatalf("bucket 1 exemplar = %+v, want trace-b", ex[1])
	}
	if ex[2] == nil || ex[2].TraceID != "trace-tail" {
		t.Fatalf("overflow bucket exemplar = %+v, want trace-tail", ex[2])
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
}
