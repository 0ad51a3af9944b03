package obs

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// HistogramSnapshot is the serializable state of one histogram.
// Bounds holds the finite upper bounds; Counts has one more entry
// than Bounds, the last being the overflow (+Inf) bucket.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	// P50/P95/P99 are bucket-interpolated quantile estimates (see
	// Histogram.Quantile) — the request-latency summary consumed by
	// the serve benchmarks without re-deriving from buckets.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// Exemplars, when present, is parallel to Counts: the most recent
	// (value, trace ID) that landed in each bucket, linking tail
	// buckets to concrete /debug/traces entries.
	Exemplars []*Exemplar `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, serializable as
// JSON — the format of the BENCH_*.json perf-trajectory artifacts.
type Snapshot struct {
	TakenAt       time.Time                    `json:"taken_at"`
	Counters      map[string]int64             `json:"counters,omitempty"`
	FloatCounters map[string]float64           `json:"float_counters,omitempty"`
	Gauges        map[string]float64           `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		TakenAt:       time.Now(),
		Counters:      make(map[string]int64, len(r.counters)),
		FloatCounters: make(map[string]float64, len(r.floats)),
		Gauges:        make(map[string]float64, len(r.gauges)),
		Histograms:    make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, c := range r.floats {
		s.FloatCounters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		bounds, counts := h.Buckets()
		s.Histograms[name] = HistogramSnapshot{
			Count: h.Count(), Sum: h.Sum(), Bounds: bounds, Counts: counts,
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Exemplars: h.Exemplars(),
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// SaveFile writes the snapshot to path, replacing any existing file.
func (s Snapshot) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
