package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. A Trace follows one unit of work — a
// /v1/solve request, a benchmark solve — across every goroutine it
// touches: the HTTP handler that admits it, the dispatcher that
// batches it, the solver that iterates on it. Where the Registry's
// counters and histograms aggregate over all requests, a trace keeps
// the attribution: *this* request spent 1.8 ms in the admission
// queue, rode batch 4021 at kernel width m=16, and converged in 11 CG
// iterations.
//
// Traces are deliberately heavier than the atomic hot-path metrics —
// every recording takes the trace's mutex — so they belong on
// request-scale paths (milliseconds), not inside kernels
// (microseconds). One traced solve records on the order of ten
// entries; the cost is nanoseconds against a millisecond solve.
//
// Completed traces are retained in two bounded stores: a ring buffer
// of the most recent completions and a slowest-N list, so a latency
// spike observed on the serve_request_seconds histogram can be chased
// to a concrete trace even hours later. Histogram exemplars
// (Histogram.ObserveExemplar) record the trace ID of the last
// observation per bucket, closing the loop from "the p99 moved" to
// "look at trace 68b2a1c4-000017".

// TraceSpanRecord is one completed (or still-open) timed phase inside
// a trace. Offsets are relative to the trace's start so a trace is
// self-contained and portable across processes.
type TraceSpanRecord struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // offset from trace start
	DurUS   int64  `json:"dur_us"`
}

// TraceEvent is one point-in-time structured annotation.
type TraceEvent struct {
	AtUS   int64          `json:"at_us"` // offset from trace start
	Msg    string         `json:"msg"`
	Fields map[string]any `json:"fields,omitempty"`
}

// TraceData is the serializable snapshot of a trace: the JSON shape
// served by /debug/traces and written by the -trace-jsonl sink.
type TraceData struct {
	ID     string            `json:"id"`
	Start  time.Time         `json:"start"`
	DurUS  int64             `json:"dur_us"`
	Done   bool              `json:"done"`
	Attrs  map[string]any    `json:"attrs,omitempty"`
	Spans  []TraceSpanRecord `json:"spans,omitempty"`
	Events []TraceEvent      `json:"events,omitempty"`
}

// TraceSummary is the list-view of a trace: identity, duration, and
// attributes without the span/event bodies.
type TraceSummary struct {
	ID    string         `json:"id"`
	Start time.Time      `json:"start"`
	DurUS int64          `json:"dur_us"`
	Done  bool           `json:"done"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Trace is one live or completed request trace. All methods are safe
// for concurrent use from any goroutine — that is the point: the
// serve pipeline hands a request from the HTTP handler goroutine to
// the dispatcher goroutine and both record into the same trace.
type Trace struct {
	tracer *Tracer
	id     string
	start  time.Time

	mu     sync.Mutex
	done   bool
	dur    time.Duration
	spans  []TraceSpanRecord
	events []TraceEvent
	attrs  map[string]any
}

// ID returns the trace's identifier.
func (t *Trace) ID() string { return t.id }

// StartSpan begins a named phase recorded into the trace when the
// span ends. The returned span may be ended from a different
// goroutine than the one that started it (see Span).
func (t *Trace) StartSpan(name string) *Span {
	return &Span{tr: t, name: name, start: time.Now()}
}

func (t *Trace) addSpan(name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		// A span ending after Finish (a canceled request's queue span
		// ended by the dispatcher after the handler gave up on it) has
		// nowhere to go: the trace already sank to the sink/ring.
		return
	}
	t.spans = append(t.spans, TraceSpanRecord{
		Name:    name,
		StartUS: start.Sub(t.start).Microseconds(),
		DurUS:   d.Microseconds(),
	})
}

// Event records a point-in-time annotation. fields may be nil; the
// map is copied, so callers may reuse theirs.
func (t *Trace) Event(msg string, fields map[string]any) {
	var cp map[string]any
	if len(fields) > 0 {
		cp = make(map[string]any, len(fields))
		for k, v := range fields {
			cp[k] = v
		}
	}
	at := time.Since(t.start).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.events = append(t.events, TraceEvent{AtUS: at, Msg: msg, Fields: cp})
}

// SetAttr sets a key to a value on the trace's attribute map.
func (t *Trace) SetAttr(key string, v any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	if t.attrs == nil {
		t.attrs = map[string]any{}
	}
	t.attrs[key] = v
}

// AddInt accumulates n into an integer attribute — how the solver
// adds its iteration count without knowing whether an earlier phase
// already recorded some.
func (t *Trace) AddInt(key string, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	if t.attrs == nil {
		t.attrs = map[string]any{}
	}
	prev, _ := t.attrs[key].(int64)
	t.attrs[key] = prev + n
}

// Finish completes the trace: the duration freezes, the trace moves
// from the tracer's active index into the recent ring (and the
// slowest-N list when it qualifies), and the sink, if set, receives
// the snapshot. Finish is idempotent; recordings after Finish are
// dropped.
func (t *Trace) Finish() {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.dur = time.Since(t.start)
	t.mu.Unlock()
	if t.tracer != nil {
		t.tracer.finish(t)
	}
}

// Snapshot deep-copies the trace into its serializable form.
func (t *Trace) Snapshot() TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceData{
		ID:    t.id,
		Start: t.start,
		Done:  t.done,
		Spans: append([]TraceSpanRecord(nil), t.spans...),
	}
	if t.done {
		d.DurUS = t.dur.Microseconds()
	} else {
		d.DurUS = time.Since(t.start).Microseconds()
	}
	if len(t.attrs) > 0 {
		d.Attrs = make(map[string]any, len(t.attrs))
		for k, v := range t.attrs {
			d.Attrs[k] = v
		}
	}
	if len(t.events) > 0 {
		d.Events = append([]TraceEvent(nil), t.events...)
	}
	return d
}

func (t *Trace) summary() TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSummary{ID: t.id, Start: t.start, Done: t.done}
	if t.done {
		s.DurUS = t.dur.Microseconds()
	} else {
		s.DurUS = time.Since(t.start).Microseconds()
	}
	if len(t.attrs) > 0 {
		s.Attrs = make(map[string]any, len(t.attrs))
		for k, v := range t.attrs {
			s.Attrs[k] = v
		}
	}
	return s
}

// Tracer starts traces and retains completed ones: a bounded ring of
// the most recent completions plus the slowest N, so both "what just
// happened" and "what were the worst requests" stay answerable
// without unbounded memory. The zero retention knobs of NewTracer
// pick sane defaults.
type Tracer struct {
	seq atomic.Uint64

	mu      sync.Mutex
	ringCap int
	slowCap int
	active  map[string]*Trace
	ring    []*Trace // completed, oldest-first up to ringCap, then circular
	next    int      // ring insertion cursor once full
	slow    []*Trace // completed, duration-descending, len <= slowCap
	sink    func(TraceData)
}

// NewTracer returns a tracer retaining the ringCap most recent and
// slowCap slowest completed traces (defaults 256 and 16 when <= 0).
func NewTracer(ringCap, slowCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = 256
	}
	if slowCap <= 0 {
		slowCap = 16
	}
	return &Tracer{
		ringCap: ringCap,
		slowCap: slowCap,
		active:  map[string]*Trace{},
	}
}

// DefaultTracer is the process-wide tracer the serve tier records
// into, exposed at /debug/traces.
var DefaultTracer = NewTracer(0, 0)

var traceEpoch = time.Now().UnixNano()

// NewID returns a process-unique trace ID: the process epoch (so IDs
// from different runs do not collide in aggregated logs) plus a
// sequence number.
func (tr *Tracer) NewID() string {
	return strconv.FormatUint(uint64(traceEpoch)&0xffffffff, 16) +
		"-" + strconv.FormatUint(tr.seq.Add(1), 16)
}

// Start begins a trace under the given ID; an empty id gets a
// generated one. The caller must eventually Finish the trace to move
// it out of the active index. IDs are caller-controlled (requests
// supply theirs via X-Request-ID); a duplicate active ID displaces
// the older entry from the index (the older trace still records and
// retains, it is just no longer reachable by Get until finished).
func (tr *Tracer) Start(id string) *Trace {
	if id == "" {
		id = tr.NewID()
	}
	t := &Trace{tracer: tr, id: id, start: time.Now()}
	tr.mu.Lock()
	tr.active[id] = t
	tr.mu.Unlock()
	return t
}

// SetSink installs a function called with every finished trace's
// snapshot — the hook behind mrhs-server's -trace-jsonl flag. Pass
// nil to remove. The sink runs synchronously on the finishing
// goroutine; keep it cheap or hand off internally.
func (tr *Tracer) SetSink(fn func(TraceData)) {
	tr.mu.Lock()
	tr.sink = fn
	tr.mu.Unlock()
}

func (tr *Tracer) finish(t *Trace) {
	tr.mu.Lock()
	if tr.active[t.id] == t {
		delete(tr.active, t.id)
	}
	// Recent ring.
	if len(tr.ring) < tr.ringCap {
		tr.ring = append(tr.ring, t)
	} else {
		tr.ring[tr.next] = t
		tr.next = (tr.next + 1) % tr.ringCap
	}
	// Slowest-N retention, duration-descending.
	d := t.dur
	if len(tr.slow) < tr.slowCap || d > tr.slow[len(tr.slow)-1].dur {
		i := sort.Search(len(tr.slow), func(i int) bool { return tr.slow[i].dur < d })
		tr.slow = append(tr.slow, nil)
		copy(tr.slow[i+1:], tr.slow[i:])
		tr.slow[i] = t
		if len(tr.slow) > tr.slowCap {
			tr.slow = tr.slow[:tr.slowCap]
		}
	}
	sink := tr.sink
	tr.mu.Unlock()
	if sink != nil {
		sink(t.Snapshot())
	}
}

// Get returns the trace with the given ID — active, recent, or
// retained-slow — or ok=false.
func (tr *Tracer) Get(id string) (TraceData, bool) {
	tr.mu.Lock()
	t := tr.active[id]
	if t == nil {
		for _, c := range tr.ring {
			if c.id == id {
				t = c
				break
			}
		}
	}
	if t == nil {
		for _, c := range tr.slow {
			if c.id == id {
				t = c
				break
			}
		}
	}
	tr.mu.Unlock()
	if t == nil {
		return TraceData{}, false
	}
	return t.Snapshot(), true
}

// Recent returns summaries of up to n recently completed traces,
// newest first (n <= 0: everything retained).
func (tr *Tracer) Recent(n int) []TraceSummary {
	tr.mu.Lock()
	ts := make([]*Trace, 0, len(tr.ring))
	// Oldest-first order is ring[next:] then ring[:next]; walk it
	// backwards for newest-first.
	for i := len(tr.ring) - 1; i >= 0; i-- {
		ts = append(ts, tr.ring[(tr.next+i)%len(tr.ring)])
	}
	tr.mu.Unlock()
	if n > 0 && len(ts) > n {
		ts = ts[:n]
	}
	out := make([]TraceSummary, len(ts))
	for i, t := range ts {
		out[i] = t.summary()
	}
	return out
}

// Slowest returns summaries of the retained slowest traces,
// duration-descending.
func (tr *Tracer) Slowest() []TraceSummary {
	tr.mu.Lock()
	ts := append([]*Trace(nil), tr.slow...)
	tr.mu.Unlock()
	out := make([]TraceSummary, len(ts))
	for i, t := range ts {
		out[i] = t.summary()
	}
	return out
}

// ActiveCount returns the number of started-but-unfinished traces.
func (tr *Tracer) ActiveCount() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.active)
}

type traceCtxKey struct{}

// ContextWithTrace returns ctx carrying the trace, for layers that
// communicate through contexts (the serve pipeline, solver.Options).
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil. A nil ctx is
// allowed and returns nil, so hot paths can call this unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
