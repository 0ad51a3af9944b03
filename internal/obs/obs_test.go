package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				// Concurrent get-or-create of the same metric must
				// return the same instance.
				r.Counter("x_total").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 2*workers*each {
		t.Fatalf("counter = %d, want %d", got, 2*workers*each)
	}
}

func TestFloatCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	f := r.FloatCounter("secs_total")
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Add(0.5)
			}
		}()
	}
	wg.Wait()
	want := 0.5 * workers * each
	if got := f.Value(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("float counter = %g, want %g", got, want)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("bw_bytes_per_second")
	g.Set(3.5e9)
	if got := g.Value(); got != 3.5e9 {
		t.Fatalf("gauge = %g", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %g after reset", got)
	}
}

func TestHistogramBucketsAndConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("resid", []float64{1e-8, 1e-6, 1e-4})
	const workers, each = 4, 1000
	var wg sync.WaitGroup
	vals := []float64{1e-9, 1e-7, 1e-5, 1.0}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for _, v := range vals {
					h.Observe(v)
				}
			}
		}()
	}
	wg.Wait()
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("shape: %d bounds, %d counts", len(bounds), len(counts))
	}
	per := int64(workers * each)
	for i, c := range counts {
		if c != per {
			t.Fatalf("bucket %d = %d, want %d", i, c, per)
		}
	}
	if h.Count() != 4*per {
		t.Fatalf("count = %d, want %d", h.Count(), 4*per)
	}
	wantSum := float64(per) * (1e-9 + 1e-7 + 1e-5 + 1)
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10})
	h.Observe(1) // exactly on a bound: counted as <= 1
	_, counts := h.Buckets()
	if counts[0] != 1 || counts[1] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering counter name as gauge")
		}
	}()
	r.Gauge("dual")
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(1e-3, 10, 4)
	want := []float64{1e-3, 1e-2, 1e-1, 1}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestLabelAndSplitName(t *testing.T) {
	n := Label("x_total", "m", "16")
	if n != `x_total{m="16"}` {
		t.Fatalf("Label = %q", n)
	}
	n = Label(n, "alg", "mrhs")
	if n != `x_total{m="16",alg="mrhs"}` {
		t.Fatalf("composed Label = %q", n)
	}
	base, labels := SplitName(n)
	if base != "x_total" || labels["m"] != "16" || labels["alg"] != "mrhs" {
		t.Fatalf("SplitName = %q, %v", base, labels)
	}
	base, labels = SplitName("plain")
	if base != "plain" || labels != nil {
		t.Fatalf("SplitName(plain) = %q, %v", base, labels)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("calls_total", "m", "8")).Add(42)
	r.FloatCounter("secs_total").Add(1.25)
	r.Gauge("bw").Set(9.5)
	h := r.Histogram("resid", []float64{1e-6, 1e-3})
	h.Observe(1e-7)
	h.Observe(0.5)

	snap := r.Snapshot()
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Counters[Label("calls_total", "m", "8")] != 42 {
		t.Fatalf("counters = %v", got.Counters)
	}
	if got.FloatCounters["secs_total"] != 1.25 {
		t.Fatalf("float counters = %v", got.FloatCounters)
	}
	if got.Gauges["bw"] != 9.5 {
		t.Fatalf("gauges = %v", got.Gauges)
	}
	hs := got.Histograms["resid"]
	if hs.Count != 2 || math.Abs(hs.Sum-(1e-7+0.5)) > 1e-12 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if len(hs.Bounds) != 2 || len(hs.Counts) != 3 {
		t.Fatalf("histogram shape = %+v", hs)
	}
	if hs.Counts[0] != 1 || hs.Counts[2] != 1 {
		t.Fatalf("histogram counts = %v", hs.Counts)
	}
}

func TestSnapshotJSONDeterministicKeys(t *testing.T) {
	// Histogram +Inf bucket must stay out of the JSON bounds — JSON
	// cannot encode Inf and the writer would error.
	r := NewRegistry()
	r.Histogram("h", []float64{1}).Observe(2)
	path := filepath.Join(t.TempDir(), "s.json")
	if err := r.Snapshot().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty snapshot file")
	}
}
