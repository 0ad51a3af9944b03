package bcrs

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/cpufeat"
	"repro/internal/multivec"
	"repro/internal/rng"
)

// gspmvKernels are the row kernels a width-m multiply can run, general
// or half storage: the AVX-512 one (where the host has it), the AVX2
// one with cpufeat.AVX512 cleared, and the Go kernels with
// cpufeat.AVX2 and cpufeat.FMA cleared, which are the oracle. The half
// storage's assembly also needs FMA. On a host without a kernel its
// entry runs the next one down.
var gspmvKernels = []struct {
	name      string
	simd, zmm bool
}{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}}

// withKernel runs fn with the multiply limited to the given kernels.
func withKernel(simd, zmm bool, fn func()) {
	defer func(a, f, z bool) { cpufeat.AVX2, cpufeat.FMA, cpufeat.AVX512 = a, f, z }(cpufeat.AVX2, cpufeat.FMA, cpufeat.AVX512)
	cpufeat.AVX2 = cpufeat.AVX2 && simd
	cpufeat.FMA = cpufeat.FMA && simd
	cpufeat.AVX512 = cpufeat.AVX512 && zmm
	fn()
}

// gspmvWidths are the widths the row kernels are checked at: every
// m % 8 tail, alone (m < 8), after the 8-column pass and after the
// zmm kernel's 16-column pass, and 48, the 16-column pass repeated.
var gspmvWidths = func() []int {
	var ms []int
	for m := 2; m <= 33; m++ {
		ms = append(ms, m)
	}
	return append(ms, 48)
}()

// TestSIMDKernelBitwiseMatchesGo verifies both SIMD row kernels give
// the pure-Go kernels' bits at every width they serve — the property
// the fused serving path's batched-vs-unbatched guarantee rests on —
// on whole matrices and on sub-ranges [lo, hi), a thread's share, where
// no y outside the range may change; with finite operands and with
// NaN, infinities, signed zeros and a subnormal planted in x and in
// the blocks.
func TestSIMDKernelBitwiseMatchesGo(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no SIMD fast path on this host")
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324}
	for name, a := range spmv1Cases() {
		for _, hostile := range []bool{false, true} {
			for _, m := range gspmvWidths {
				s := rng.New(uint64(99 + m))
				x := make([]float64, a.NCols()*m)
				s.FillNormal(x)
				a := a
				if hostile {
					a = NewMatrix(a.nb, a.ncb, a.rowPtr, a.colIdx, append([]float64(nil), a.vals...))
					for k := 0; k < 1+len(x)/8; k++ {
						x[s.Intn(len(x))] = specials[s.Intn(len(specials))]
						a.vals[s.Intn(len(a.vals))] = specials[s.Intn(len(specials))]
					}
				}
				for _, r := range [][2]int{{0, a.nb}, {0, a.nb / 2}, {a.nb / 3, a.nb}, {a.nb / 2, a.nb/2 + 1}} {
					product := func(simd, zmm bool) []float64 {
						y := make([]float64, a.N()*m)
						for i := range y {
							y[i] = 123 // what a kernel must leave outside its range
						}
						withKernel(simd, zmm, func() { a.mulRange(y, x, m, false, r[0], r[1]) })
						return y
					}
					want := product(false, false)
					for _, k := range gspmvKernels[:2] {
						if i := sameBits(product(k.simd, k.zmm), want); i >= 0 {
							t.Fatalf("%s hostile=%v m=%d rows [%d,%d) %s: y[%d] differs from the Go kernels",
								name, hostile, m, r[0], r[1], k.name, i)
						}
					}
				}
			}
		}
	}
}

// TestSIMDKernelEmptyRow covers the zero-blocks row edge the row
// kernels cannot be handed (they would index past the vals slice), at
// every width, the masked tails included.
func TestSIMDKernelEmptyRow(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no SIMD fast path on this host")
	}
	// Build a 3-row matrix whose middle row is empty.
	b := NewBuilder(3)
	var d blas.Mat3
	for i := range d {
		d[i] = float64(i + 1)
	}
	b.AddBlock(0, 0, d)
	b.AddBlock(2, 1, d)
	a := b.Build()

	for _, m := range gspmvWidths {
		x := multivec.New(a.NCols(), m)
		for i := range x.Data {
			x.Data[i] = 1
		}
		want := multivec.New(a.N(), m)
		withKernel(false, false, func() { a.Mul(want, x) })
		for _, k := range gspmvKernels[:2] {
			got := multivec.New(a.N(), m)
			// Poison the output so stale values would be caught.
			for i := range got.Data {
				got.Data[i] = 123
			}
			withKernel(k.simd, k.zmm, func() { a.Mul(got, x) })
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("m=%d %s: data[%d] = %v, want %v", m, k.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}
