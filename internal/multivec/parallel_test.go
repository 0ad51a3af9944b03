package multivec

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Parallel-vs-serial equivalence for the pooled block-vector ops:
// every one of them — the disjoint-write ops (Scale, AddMul, SetMulAdd)
// and the Gram product, whose row chunks are a function of n alone —
// must be bitwise-identical for ANY thread count.

func fillMV(n, m int, seed uint64) *MultiVec {
	v := New(n, m)
	rng.New(seed).FillNormal(v.Data)
	return v
}

func fillDense(r, c int, seed uint64) *blas.Dense {
	d := blas.NewDense(r, c)
	rng.New(seed).FillNormal(d.Data)
	return d
}

// withThreads runs fn with the process pool at t threads, restoring
// the pool's size afterwards.
func withThreads(t *testing.T, threads int, fn func()) {
	t.Helper()
	defer parallel.SetThreads(parallel.Threads())
	parallel.SetThreads(threads)
	fn()
}

// dispatches reports whether fn split some op over the pool: whether
// parallel_jobs_total moved. A thread-count test whose ops all ran
// inline would compare the serial path with itself.
func dispatches(fn func()) bool {
	jobs := obs.Default.Counter("parallel_jobs_total")
	before := jobs.Value()
	fn()
	return jobs.Value() != before
}

func TestDisjointOpsExactAcrossThreadCounts(t *testing.T) {
	const n, seed = 40000, 7 // 2.6 MB a block at m = 5: every op splits
	// m=5 exercises the Go loops, m=8 the AVX2 kernels.
	for _, m := range []int{5, 8} {
		x := fillMV(n, m, seed)
		y := fillMV(n, m, seed+1)
		a := fillDense(m, m, seed+2)

		type result struct{ scale, addmul, setmuladd []float64 }
		run := func() result {
			var res result
			v := x.Clone()
			v.Scale(1.25)
			res.scale = append([]float64(nil), v.Data...)
			v.CopyFrom(y)
			v.AddMul(x, a)
			res.addmul = append([]float64(nil), v.Data...)
			v.SetMulAdd(y, x, a)
			res.setmuladd = append([]float64(nil), v.Data...)
			return res
		}

		var want result
		withThreads(t, 1, func() { want = run() })
		for _, threads := range []int{2, 3, 4} {
			var got result
			withThreads(t, threads, func() {
				if !dispatches(func() { got = run() }) {
					t.Fatalf("m=%d threads=%d: no op split over the pool", m, threads)
				}
			})
			for _, c := range []struct {
				op         string
				want, data []float64
			}{
				{"Scale", want.scale, got.scale},
				{"AddMul", want.addmul, got.addmul},
				{"SetMulAdd", want.setmuladd, got.setmuladd},
			} {
				for i := range c.want {
					if c.data[i] != c.want[i] {
						t.Fatalf("m=%d threads=%d %s: element %d = %x, serial %x",
							m, threads, c.op, i, c.data[i], c.want[i])
					}
				}
			}
		}
	}
}

func TestGramParallelDeterministicAndAccurate(t *testing.T) {
	const n, seed = 20000, 11
	for _, m := range []int{5, 8} {
		x := fillMV(n, m, seed)
		y := fillMV(n, m, seed+1)
		var serial *blas.Dense
		withThreads(t, 1, func() { serial = gram(x, y) })

		withThreads(t, 4, func() {
			for rep := 0; rep < 10; rep++ {
				var g *blas.Dense
				if !dispatches(func() { g = gram(x, y) }) {
					t.Fatalf("m=%d: the Gram product ran its chunks inline", m)
				}
				if i := sameBits(g.Data, serial.Data); i >= 0 {
					t.Fatalf("m=%d rep %d: Gram element %d = %v, serial %v", m, rep, i, g.Data[i], serial.Data[i])
				}
			}
		})
	}
}

func TestIntoVariantsMatchAllocatingOnes(t *testing.T) {
	const n, m, seed = 4000, 8, 17
	x := fillMV(n, m, seed)
	y := fillMV(n, m, seed+1)

	g := blas.NewDense(m, m)
	for i := range g.Data {
		g.Data[i] = math.NaN() // stale scratch
	}
	GramInto(g, x, y)
	want := gram(x, y)
	for i := range want.Data {
		if g.Data[i] != want.Data[i] {
			t.Fatalf("GramInto element %d = %x, into a fresh matrix %x", i, g.Data[i], want.Data[i])
		}
	}
	// GramInto must overwrite, not accumulate.
	GramInto(g, x, y)
	for i := range want.Data {
		if g.Data[i] != want.Data[i] {
			t.Fatalf("second GramInto accumulated at element %d", i)
		}
	}
}
