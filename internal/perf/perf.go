// Package perf measures the hardware parameters and kernel timings
// that feed the Section-IV performance model and experiments.
//
// It provides a STREAM-style triad benchmark for achievable memory
// bandwidth B, the paper's "basic kernel" benchmark for achievable
// flop rate F (repeatedly multiplying a block of memory that stays in
// cache, Section IV-D1), and wall-clock measurement of SPMV/GSPMV so
// experiments can report achieved GB/s, Gflop/s, and relative times
// r(m) alongside the model's predictions.
package perf

import (
	"slices"
	"time"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/rng"
)

// sink defeats dead-code elimination of benchmark loops.
var sink float64

// MeasureBandwidth runs a STREAM-style triad a[i] = b[i] + s*c[i] over
// arrays of n doubles and returns the achieved bandwidth in bytes per
// second. Following the paper's accounting (footnote 1: bandwidth
// scaled by 4/3 for the write-allocate transfer), each element is
// charged 4 accesses of 8 bytes: read b, read c, write a, plus the
// write-allocate read of a.
//
// Use n large enough to defeat the last-level cache; DefaultTriadN is
// sized for common LLCs.
func MeasureBandwidth(n, iters int) float64 {
	if n < 1 {
		n = DefaultTriadN
	}
	if iters < 1 {
		iters = 3
	}
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
		c[i] = float64(n - i)
	}
	const s = 3.0
	triad := func() {
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
	}
	triad() // warm-up and page-fault absorption
	best := time.Duration(1<<63 - 1)
	for it := 0; it < iters; it++ {
		t0 := time.Now()
		triad()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	sink += a[n/2]
	bytes := float64(n) * 8 * 4
	return bytes / best.Seconds()
}

// DefaultTriadN is the default triad array length: 8 MiB per array,
// 24 MiB total, larger than typical last-level caches.
const DefaultTriadN = 1 << 20

// MeasureKernelFlops measures F, the achievable flop rate of the
// basic kernel, by repeatedly multiplying a small matrix that fits in
// cache (so bandwidth cannot bind) with each vector count in ms, and
// returns the average rate in flops per second. The paper runs m from
// 1 to 64 and averages excluding m = 1 (which has too little SIMD
// parallelism); callers typically pass {2, 4, 8, 16}.
func MeasureKernelFlops(ms []int) float64 {
	if len(ms) == 0 {
		ms = []int{2, 4, 8, 16}
	}
	// ~1000 block rows x 20 blocks/row x 72 B = ~1.4 MiB of matrix:
	// resident in cache after the first pass on any modern CPU.
	a := bcrs.Random(bcrs.RandomOptions{NB: 1000, BlocksPerRow: 20, Seed: 99})
	var total float64
	for _, m := range ms {
		secs := TimeMultiply(a, m)
		total += float64(a.FlopCount(m)) / secs
	}
	return total / float64(len(ms))
}

// TimeMultiply returns the wall time in seconds of one Y = A*X with m
// vectors: multiplies are batched until one batch takes at least
// ~20 ms, and the per-multiply average of that batch is returned. X is
// filled deterministically.
func TimeMultiply(a *bcrs.Matrix, m int) float64 {
	y, x := operands(a, m)
	const target = 20 * time.Millisecond
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			a.Mul(y, x)
		}
		d := time.Since(t0)
		if d >= target {
			sink += y.Data[0]
			return d.Seconds() / float64(batch)
		}
		if d <= 0 {
			batch *= 8
			continue
		}
		grow := int(float64(target)/float64(d)) + 1
		if grow < 2 {
			grow = 2
		}
		batch *= grow
	}
}

// operands returns a deterministic m-wide X and its product Y = A*X;
// the multiply is the warm-up that faults Y's pages in.
func operands(a *bcrs.Matrix, m int) (y, x *multivec.MultiVec) {
	x = multivec.New(a.N(), m)
	rng.New(7).FillNormal(x.Data)
	y = multivec.New(a.N(), m)
	a.Mul(y, x)
	return y, x
}

// TimePaired runs a and then its reference b, back to back, n times
// and returns the median of the n ratios T(a)/T(b) and b's median time
// in seconds. Timing every a beside its own b cancels the drift of a
// shared host — frequency, a neighbour's load — that a ratio of two
// minimums taken at different moments keeps.
func TimePaired(n int, a, b func()) (ratio, ref float64) {
	tb, ratios := make([]float64, n), make([]float64, n)
	for i := range ratios {
		t0 := time.Now()
		a()
		t1 := time.Now()
		b()
		tb[i] = time.Since(t1).Seconds()
		ratios[i] = t1.Sub(t0).Seconds() / tb[i]
	}
	return median(ratios), median(tb)
}

// median returns the middle element of v (the upper one of an even
// count), sorting v in place.
func median(v []float64) float64 {
	slices.Sort(v)
	return v[len(v)/2]
}

// relativePairs is the number of back-to-back pairs behind each paired
// ratio r(m).
const relativePairs = 11

// RelativeTimes measures r(m) = T(m)/T(1) for each m: the median ratio
// over relativePairs multiplies with m vectors, each timed back to
// back with a single-vector one (the specialized m=1 kernel). r(1) is
// 1 by definition and is not measured.
func RelativeTimes(a *bcrs.Matrix, ms []int) []float64 {
	y1, x1 := operands(a, 1)
	out := make([]float64, len(ms))
	for i, m := range ms {
		if m == 1 {
			out[i] = 1
			continue
		}
		y, x := operands(a, m)
		out[i], _ = TimePaired(relativePairs, func() { a.Mul(y, x) }, func() { a.Mul(y1, x1) })
	}
	return out
}

// Rates holds the achieved transfer and compute rates of a measured
// multiply, in the units of the paper's Table II.
type Rates struct {
	GBps   float64 // achieved bandwidth, 1e9 bytes/s, per the traffic model
	Gflops float64 // achieved flop rate, 1e9 flop/s
	Secs   float64 // measured seconds per multiply
}

// MeasureRates times one multiply with m vectors and converts to the
// Table II quantities, charging traffic with the model's Mtr(m) at
// k = model.DefaultK.
func MeasureRates(a *bcrs.Matrix, m int) Rates {
	secs := TimeMultiply(a, m)
	g := model.GSPMV{
		Shape: model.Shape{NB: a.NB(), NNZB: a.NNZB()},
		K:     model.DefaultK,
	}
	return Rates{
		GBps:   g.TrafficBytes(m) / secs / 1e9,
		Gflops: float64(a.FlopCount(m)) / secs / 1e9,
		Secs:   secs,
	}
}

// CalibratedMachine measures this host's (B, F) pair for use in the
// analytic model. It takes a few hundred milliseconds. The measured
// rates are published as gauges so snapshots record the calibration
// the run's model predictions were based on.
func CalibratedMachine() model.Machine {
	mc := model.Machine{
		B: MeasureBandwidth(DefaultTriadN, 3),
		F: MeasureKernelFlops(nil),
	}
	obs.Default.Gauge("perf_measured_bandwidth_bytes_per_second").Set(mc.B)
	obs.Default.Gauge("perf_basic_kernel_flops_per_second").Set(mc.F)
	return mc
}

// EffectiveMachine measures the *achievable* (B, F) pair for a
// specific matrix: B from the memory traffic the single-vector SPMV
// actually sustains on it, and F from the flop rate the basic kernel
// reaches at a large vector count on the same matrix.
//
// The paper's B and F are achievable rates too, but on its multicore
// machines STREAM bandwidth is achievable by SPMV (Table II shows
// within 3-20%). A single Go thread cannot generate enough
// outstanding misses to saturate DRAM, so on this host the achievable
// SPMV bandwidth sits well below STREAM; feeding the model the rates
// the kernel can actually reach keeps Eq. 8's *shape* predictive (see
// DESIGN.md substitutions).
func EffectiveMachine(a *bcrs.Matrix) model.Machine {
	r1 := MeasureRates(a, 1)
	r16 := MeasureRates(a, 16)
	mc := model.Machine{B: r1.GBps * 1e9, F: r16.Gflops * 1e9}
	obs.Default.Gauge("perf_effective_bandwidth_bytes_per_second").Set(mc.B)
	obs.Default.Gauge("perf_effective_kernel_flops_per_second").Set(mc.F)
	return mc
}
