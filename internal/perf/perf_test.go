package perf

import (
	"testing"
	"time"

	"repro/internal/bcrs"
)

func TestMeasureBandwidthPlausible(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	b := MeasureBandwidth(1<<18, 2)
	// Any machine this runs on moves between 0.1 and 10000 GB/s.
	if b < 1e8 || b > 1e13 {
		t.Fatalf("bandwidth %v bytes/s implausible", b)
	}
}

func TestMeasureKernelFlopsPlausible(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	f := MeasureKernelFlops([]int{4, 8})
	if f < 1e7 || f > 1e13 {
		t.Fatalf("flop rate %v implausible", f)
	}
}

func TestTimeMultiplyPositive(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 500, BlocksPerRow: 8, Seed: 1})
	s := TimeMultiply(a, 4)
	if s <= 0 {
		t.Fatalf("TimeMultiply = %v", s)
	}
}

func TestRelativeTimesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	a := bcrs.Random(bcrs.RandomOptions{NB: 3000, BlocksPerRow: 20, Seed: 2})
	rs := RelativeTimes(a, []int{1, 4, 16})
	if len(rs) != 3 {
		t.Fatalf("len = %d", len(rs))
	}
	// r(1) is 1 by definition, not a measurement.
	if rs[0] != 1 {
		t.Fatalf("r(1) = %v, want 1", rs[0])
	}
	// Multiplying by 16 vectors must cost less than 16x one vector —
	// the paper's core observation — and at least as much as doing
	// nothing. Allow generous noise margins.
	if rs[2] >= 16 {
		t.Fatalf("r(16) = %v, GSPMV shows no amortization", rs[2])
	}
	// The lower bound only rejects nonsense (zero/negative timings).
	// r(16) genuinely drops below 1 under the race detector, which
	// instruments the pure-Go m=1 kernel but not the AVX2 assembly
	// fast path serving m >= 8.
	if rs[2] <= 0.01 {
		t.Fatalf("r(16) = %v implausibly small", rs[2])
	}
}

// TestTimePairedMedians: the ratio is the median of the per-pair
// ratios, not the ratio of the medians, and the reference's time is its
// own median.
func TestTimePairedMedians(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Pair ratios 40/20, 10/10, 40/10: their median is 2, the ratio of
	// the medians 4.
	ta := []time.Duration{40, 10, 40}
	tb := []time.Duration{20, 10, 10}
	i, j := 0, 0
	ratio, ref := TimePaired(3, func() { time.Sleep(ta[i] * time.Millisecond); i++ },
		func() { time.Sleep(tb[j] * time.Millisecond); j++ })
	if i != 3 || j != 3 {
		t.Fatalf("ran a %d and b %d times, want 3 each", i, j)
	}
	if ratio < 1.5 || ratio > 3 || ref < 10e-3 || ref > 20e-3 {
		t.Fatalf("TimePaired = %v, %v s; want ratio ~2, reference ~10 ms", ratio, ref)
	}
}

func TestMeasureRatesConsistent(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 1000, BlocksPerRow: 10, Seed: 3})
	r := MeasureRates(a, 2)
	if r.Secs <= 0 || r.GBps <= 0 || r.Gflops <= 0 {
		t.Fatalf("rates must be positive: %+v", r)
	}
	// Gflops must equal flops/secs by construction.
	want := float64(a.FlopCount(2)) / r.Secs / 1e9
	if diff := r.Gflops - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Gflops inconsistent: %v vs %v", r.Gflops, want)
	}
}
