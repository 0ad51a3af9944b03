package multivec

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Parallel-vs-serial equivalence for the pooled block-vector ops.
// Disjoint-write ops (Scale, Sub, Add, AddMul, SetMulAdd) must be
// bitwise-identical for ANY thread count; the blocked reductions
// (Gram, ColNorms) must be bitwise-deterministic at a FIXED thread
// count and agree with the serial result to rounding.

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
// the serial pool afterwards.
func withThreads(t *testing.T, threads int, fn func()) {
	t.Helper()
	parallel.SetThreads(threads)
	defer parallel.SetThreads(1)
	fn()
}

func TestDisjointOpsExactAcrossThreadCounts(t *testing.T) {
	const n, seed = 5000, 7
	// m=5 exercises the Go loops, m=8 the AVX2 kernels.
	for _, m := range []int{5, 8} {
		x := fillMV(n, m, seed)
		y := fillMV(n, m, seed+1)
		a := fillDense(m, m, seed+2)

		type result struct{ scale, sub, add, addmul, setmuladd []float64 }
		run := func() result {
			var res result
			v := x.Clone()
			v.Scale(1.25)
			res.scale = append([]float64(nil), v.Data...)
			v.Sub(x, y)
			res.sub = append([]float64(nil), v.Data...)
			v.Add(x, y)
			res.add = append([]float64(nil), v.Data...)
			v.CopyFrom(y)
			v.AddMul(x, a)
			res.addmul = append([]float64(nil), v.Data...)
			v.SetMulAdd(y, x, a)
			res.setmuladd = append([]float64(nil), v.Data...)
			return res
		}

		want := run() // serial pool
		for _, threads := range []int{2, 3, 4} {
			var got result
			withThreads(t, threads, func() { got = run() })
			for _, c := range []struct {
				op         string
				want, data []float64
			}{
				{"Scale", want.scale, got.scale},
				{"Sub", want.sub, got.sub},
				{"Add", want.add, got.add},
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
		serial := Gram(x, y)

		withThreads(t, 4, func() {
			if !parallel.Default().Parallel(n, 1) {
				t.Fatal("pool unexpectedly serial")
			}
			first := Gram(x, y)
			for rep := 0; rep < 10; rep++ {
				g := Gram(x, y)
				for i := range g.Data {
					if g.Data[i] != first.Data[i] {
						t.Fatalf("m=%d rep %d: Gram element %d not bitwise stable", m, rep, i)
					}
				}
			}
			for i := range first.Data {
				diff := math.Abs(first.Data[i] - serial.Data[i])
				scale := math.Abs(serial.Data[i]) + 1
				if diff > 1e-10*scale {
					t.Fatalf("m=%d: parallel Gram element %d = %v, serial %v", m, i, first.Data[i], serial.Data[i])
				}
			}
		})
	}
}

func TestColNormsParallelDeterministicAndAccurate(t *testing.T) {
	const n, m, seed = 30000, 6, 13
	v := fillMV(n, m, seed)
	serial := v.ColNorms()

	withThreads(t, 3, func() {
		first := v.ColNorms()
		for rep := 0; rep < 10; rep++ {
			got := v.ColNorms()
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("rep %d: ColNorms column %d not bitwise stable", rep, j)
				}
			}
		}
		for j := range first {
			if math.Abs(first[j]-serial[j]) > 1e-10*serial[j] {
				t.Fatalf("parallel ColNorms column %d = %v, serial %v", j, first[j], serial[j])
			}
		}
	})
}

func TestIntoVariantsMatchAllocatingOnes(t *testing.T) {
	const n, m, seed = 4000, 8, 17
	x := fillMV(n, m, seed)
	y := fillMV(n, m, seed+1)

	g := blas.NewDense(m, m)
	GramInto(g, x, y)
	want := Gram(x, y)
	for i := range want.Data {
		if g.Data[i] != want.Data[i] {
			t.Fatalf("GramInto element %d = %x, Gram %x", i, g.Data[i], want.Data[i])
		}
	}
	// GramInto must overwrite, not accumulate.
	GramInto(g, x, y)
	for i := range want.Data {
		if g.Data[i] != want.Data[i] {
			t.Fatalf("second GramInto accumulated at element %d", i)
		}
	}

	dst := make([]float64, m)
	x.ColNormsInto(dst)
	norms := x.ColNorms()
	for j := range norms {
		if dst[j] != norms[j] {
			t.Fatalf("ColNormsInto column %d = %x, ColNorms %x", j, dst[j], norms[j])
		}
	}
}
