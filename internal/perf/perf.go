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
		secs := TimeMultiply(a, m, 0)
		total += float64(a.FlopCount(m)) / secs
	}
	return total / float64(len(ms))
}

// BlockMultiplier is the measurable multiply surface shared by the
// general and symmetric BCRS matrices.
type BlockMultiplier interface {
	N() int
	Mul(y, x *multivec.MultiVec)
}

// TimeMultiply returns the wall time in seconds of one Y = A*X with m
// vectors, taking the minimum over enough repetitions to accumulate
// at least ~20 ms of work (or reps repetitions if reps > 0). X is
// filled deterministically.
func TimeMultiply(a BlockMultiplier, m, reps int) float64 {
	x := multivec.New(a.N(), m)
	rng.New(7).FillNormal(x.Data)
	y := multivec.New(a.N(), m)
	a.Mul(y, x) // warm-up
	if reps > 0 {
		best := 1e300
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			a.Mul(y, x)
			if s := time.Since(t0).Seconds(); s < best {
				best = s
			}
		}
		sink += y.Data[0]
		return best
	}
	// Auto-rep: batch multiplies until 20 ms elapsed, then report the
	// per-multiply average of the best batch.
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

// RelativeTimes measures r(m) = T(m)/T(1) for each m, with T(1) the
// measured single-vector SPMV time (specialized m=1 kernel). Each
// point is the minimum over repeated measurements, which suppresses
// scheduler and frequency noise on shared hosts.
func RelativeTimes(a *bcrs.Matrix, ms []int) []float64 {
	t1 := timeMultiplyStable(a, 1)
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = timeMultiplyStable(a, m) / t1
	}
	return out
}

// timeMultiplyStable is TimeMultiply repeated three times, keeping
// the minimum.
func timeMultiplyStable(a BlockMultiplier, m int) float64 {
	best := TimeMultiply(a, m, 0)
	for i := 0; i < 2; i++ {
		if t := TimeMultiply(a, m, 0); t < best {
			best = t
		}
	}
	return best
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
// the given k.
func MeasureRates(a *bcrs.Matrix, m int, k float64) Rates {
	secs := TimeMultiply(a, m, 0)
	g := model.GSPMV{
		Shape: model.Shape{NB: a.NB(), NNZB: a.NNZB()},
		K:     model.ConstK(k),
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
func EffectiveMachine(a *bcrs.Matrix, k float64) model.Machine {
	r1 := MeasureRates(a, 1, k)
	r16 := MeasureRates(a, 16, k)
	mc := model.Machine{B: r1.GBps * 1e9, F: r16.Gflops * 1e9}
	obs.Default.Gauge("perf_effective_bandwidth_bytes_per_second").Set(mc.B)
	obs.Default.Gauge("perf_effective_kernel_flops_per_second").Set(mc.F)
	return mc
}
