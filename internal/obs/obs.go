package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is
// usable, but counters are normally obtained from a Registry so they
// appear in exposition and snapshots.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0 for the value to
// remain monotone; this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float64, used for
// accumulated durations (seconds) where int64 granularity is awkward.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add increases the counter by v using a compare-and-swap loop.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Value returns the current value.
func (c *FloatCounter) Value() float64 {
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 that can move in either direction.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into buckets with fixed upper bounds,
// tracking the total count and sum as well. Observations are atomic;
// concurrent Observe calls are safe.
type Histogram struct {
	bounds    []float64 // ascending finite upper bounds; +Inf implicit
	buckets   []atomic.Int64
	count     atomic.Int64
	sumBits   atomic.Uint64
	exemplars []atomic.Pointer[Exemplar] // last exemplar per bucket
}

// Exemplar links one concrete observation — and the trace that
// produced it — to the histogram bucket it landed in, so a moved
// latency quantile can be chased to an actual request trace via
// /debug/traces.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		buckets:   make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// ObserveExemplar records one value and remembers (value, traceID) as
// the bucket's exemplar, replacing the previous one: each bucket
// always names the most recent trace that landed in it. An empty
// traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if traceID != "" {
		i := sort.SearchFloat64s(h.bounds, v)
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID})
	}
	h.Observe(v)
}

// Exemplars returns the per-bucket exemplars, parallel to the counts
// of Buckets (nil entries where a bucket never saw an exemplar), or
// nil when no bucket has one.
func (h *Histogram) Exemplars() []*Exemplar {
	var out []*Exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			if out == nil {
				out = make([]*Exemplar, len(h.exemplars))
			}
			out[i] = e
		}
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the finite upper bounds and the per-bucket counts;
// counts has one more entry than bounds (the overflow / +Inf bucket).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return bounds, counts
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution from the bucket counts, interpolating linearly inside
// the containing bucket. The first bucket interpolates from zero (all
// recorded quantities — latencies, residuals — are non-negative);
// observations in the overflow bucket are attributed to the largest
// finite bound, the best statement the bucketed data can make. With no
// observations the estimate is 0. This powers the p50/p95/p99 request-
// latency summaries of the JSON snapshot and Prometheus export.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i >= len(h.bounds) {
				// Overflow bucket: no finite upper edge to
				// interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - cum) / c
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// ExponentialBuckets returns n upper bounds starting at start and
// multiplying by factor: {start, start*factor, ...}.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ResidualBuckets spans the relative-residual range of the paper's
// solves (tolerance 1e-6) with decade resolution.
var ResidualBuckets = ExponentialBuckets(1e-12, 10, 12) // 1e-12 .. 0.1

// Registry holds named metrics. All methods are safe for concurrent
// use; getters create the metric on first use and return the same
// instance thereafter. A name identifies exactly one metric kind:
// asking for an existing name as a different kind panics, since that
// is a programming error that would silently split a metric.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	floats   map[string]*FloatCounter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		floats:   map[string]*FloatCounter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry the instrumented packages
// report into.
var Default = NewRegistry()

func (r *Registry) checkKind(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: metric %q already registered as counter", name))
	}
	if _, ok := r.floats[name]; ok && kind != "floatcounter" {
		panic(fmt.Sprintf("obs: metric %q already registered as float counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: metric %q already registered as gauge", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: metric %q already registered as histogram", name))
	}
}

// Counter returns the counter with the given name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	r.checkKind(name, "counter")
	c = &Counter{}
	r.counters[name] = c
	return c
}

// FloatCounter returns the float counter with the given name,
// creating it if needed.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	r.mu.RLock()
	c, ok := r.floats[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.floats[name]; ok {
		return c
	}
	r.checkKind(name, "floatcounter")
	c = &FloatCounter{}
	r.floats[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	r.checkKind(name, "gauge")
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram with the given name, creating it
// with the given finite upper bounds if needed. An existing histogram
// is returned as-is; its bounds are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	r.checkKind(name, "histogram")
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// Label encodes one label pair into a metric name:
// Label("x_total", "m", "16") == `x_total{m="16"}`. Appending to an
// already-labeled name inserts before the closing brace, so labels
// compose: Label(Label("x", "a", "1"), "b", "2") == `x{a="1",b="2"}`.
func Label(name, key, value string) string {
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + key + "=\"" + value + "\"}"
	}
	return name + "{" + key + "=\"" + value + "\"}"
}

// SplitName splits a possibly-labeled metric name into its base name
// and label map. Malformed label strings return the whole input as
// the base with nil labels.
func SplitName(name string) (base string, labels map[string]string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	base = name[:i]
	body := name[i+1 : len(name)-1]
	labels = map[string]string{}
	for _, part := range strings.Split(body, ",") {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return name, nil
		}
		k := part[:eq]
		v := strings.Trim(part[eq+1:], `"`)
		labels[k] = v
	}
	return base, labels
}
