package bcrs

import (
	"math"
	"runtime"
	"slices"
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

// fusedProbe is a block-diagonal matrix and an m-wide x on which every
// output tells each of the recurrence's two fused steps from a multiply
// and then an add. With p = 1+2⁻³⁰ and q = 1−2⁻³⁰, p·q = 1−2⁻⁶⁰ exactly,
// which rounds to 1, so for s a power of two fma(p, q·s, −s) = −s·2⁻⁶⁰
// where float64(p*q*s) − s = 0. x is (s, q·s, q·s) at every block; each
// row of each block is (−1, p, 0) or (−1, 0, p), so t = −s and the
// first or the second fused step decides the output. Rows alternate
// between the two along the diagonal, so two neighbouring blocks probe
// both steps in all three rows. Column j has s = 2^(j%5), so a lane
// that takes its neighbour's column shows too.
func fusedProbe(m int) (a *Matrix, x *multivec.MultiVec, want []float64) {
	const nb = 8
	p, q := 1+0x1p-30, 1-0x1p-30
	first := [3]float64{-1, p, 0}  // t = fma(p, x1, t) decides
	second := [3]float64{-1, 0, p} // t = fma(p, x2, t) decides
	b := NewBuilder(nb)
	for i := 0; i < nb; i++ {
		var blk blas.Mat3
		for r := 0; r < 3; r++ {
			row := first
			if (i+r)%2 == 1 {
				row = second
			}
			copy(blk[3*r:3*r+3], row[:])
		}
		b.AddBlock(i, i, blk)
	}
	a = b.Build()
	x = multivec.New(a.NCols(), m)
	want = make([]float64, a.N()*m)
	for i := 0; i < a.N(); i++ {
		for j := 0; j < m; j++ {
			s := math.Ldexp(1, j%5)
			x.Data[i*m+j] = s
			if i%3 != 0 {
				x.Data[i*m+j] = q * s
			}
			want[i*m+j] = -s * 0x1p-60
		}
	}
	return a, x, want
}

// TestKernelsFuseTheirMultiplyAdds runs fusedProbe through every
// kernel at m = 1 and every width, on one thread and four: the Go
// oracles and the assembly both give −s·2⁻⁶⁰, so each fused step is one
// rounding, in every block row, lane and kernel.
func TestKernelsFuseTheirMultiplyAdds(t *testing.T) {
	for _, threads := range []int{1, 4} {
		usePool(t, threads)
		for _, m := range append([]int{1}, gspmvWidths...) {
			a, x, want := fusedProbe(m)
			for _, k := range gspmvKernels {
				y := multivec.New(a.N(), m)
				withKernel(k.simd, k.zmm, func() { a.Mul(y, x) })
				if i := sameBits(y.Data, want); i >= 0 {
					t.Fatalf("threads=%d m=%d %s: y[%d] = %v, want %v (block row %d, row %d, column %d)",
						threads, m, k.name, i, y.Data[i], want[i], i/(3*m), i/m%3, i%m)
				}
			}
		}
	}
}

// TestNoFMARunsGoLoops: the general kernels' assembly needs FMA3 as
// well as AVX2, so a host without it takes the Go loops at every width,
// whatever else it has. The Go loops bounds-check where the assembly
// checks no index, so a block column one past x, planted behind
// NewMatrix's back, tells them apart: the Go loops panic on it, the
// assembly reads on into the memory behind x.
func TestNoFMARunsGoLoops(t *testing.T) {
	usePool(t, 1)
	a := Random(RandomOptions{NB: 8, BlocksPerRow: 2, Seed: 7})
	wild := &Matrix{nb: a.nb, ncb: a.ncb, rowPtr: a.rowPtr, colIdx: slices.Clone(a.colIdx), vals: a.vals}
	wild.colIdx[len(wild.colIdx)-1] = int32(a.ncb)
	for _, m := range append([]int{1}, gspmvWidths...) {
		n := a.NCols() * m
		room := make([]float64, n+BlockDim*m) // the block column past x
		x := &multivec.MultiVec{N: a.NCols(), M: m, Data: room[:n:n]}
		boundsPanic := func(fma bool) (caught bool) {
			defer func(saved bool) { cpufeat.FMA = saved }(cpufeat.FMA)
			cpufeat.FMA = cpufeat.FMA && fma
			defer func() { _, caught = recover().(runtime.Error) }()
			wild.Mul(multivec.New(a.N(), m), x)
			return false
		}
		if !boundsPanic(false) {
			t.Fatalf("m=%d: without FMA the multiply read past x unchecked, so it ran the assembly", m)
		}
		if cpufeat.AVX2 && cpufeat.FMA && boundsPanic(true) {
			t.Fatalf("m=%d: with AVX2 and FMA the multiply bounds-checked, so it ran the Go loops", m)
		}
	}
}
