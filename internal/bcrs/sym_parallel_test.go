package bcrs

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/cpufeat"
	"repro/internal/multivec"
	"repro/internal/rng"
)

// symTestMatrices builds the symmetric matrices the parallel-schedule
// tests sweep: a wrapped banded matrix (worst case for the scatter
// windows — corner blocks stretch them to full length), a no-wrap
// banded matrix (the RCM-like shape the benchmarks use), and a tiny
// dense-ish one where every range scatters into every other.
func symTestMatrices() map[string]*Matrix {
	return map[string]*Matrix{
		"wrapped":   Random(RandomOptions{NB: 150, BlocksPerRow: 8, Seed: 21}),
		"banded":    Random(RandomOptions{NB: 200, BlocksPerRow: 10, Bandwidth: 12, NoWrap: true, Seed: 22}),
		"dense-ish": Random(RandomOptions{NB: 24, BlocksPerRow: 12, Bandwidth: 24, Seed: 23}),
	}
}

// TestSymParallelMulMatchesGeneral is the property test: the parallel
// symmetric Mul must match the general Mul within round-off for every
// kernel width (m = 1, generic, and SIMD-served) at every pool
// size, including sizes beyond the host's cores.
func TestSymParallelMulMatchesGeneral(t *testing.T) {
	for name, a := range symTestMatrices() {
		s, err := NewSym(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, threads := range []int{1, 2, 3, 5, 8} {
			usePool(t, threads)
			for _, m := range []int{1, 2, 3, 4, 5, 8, 16, 32} {
				r := rng.New(uint64(m)*31 + uint64(threads))
				x := multivec.New(a.N(), m)
				for i := range x.Data {
					x.Data[i] = r.Normal()
				}
				y := multivec.New(a.N(), m)
				s.Mul(y, x)
				ref := multivec.New(a.N(), m)
				a.Mul(ref, x)
				for i := range y.Data {
					if !almostEqual(y.Data[i], ref.Data[i], 1e-12) {
						t.Fatalf("%s threads=%d m=%d: sym Mul differs at %d: %v vs %v",
							name, threads, m, i, y.Data[i], ref.Data[i])
					}
				}
				// A one-column view against column 0 of the reference.
				if m == 1 {
					yv := make([]float64, a.N())
					xv := make([]float64, a.N())
					for i := 0; i < a.N(); i++ {
						xv[i] = x.Data[i]
					}
					s.Mul(multivec.FromVector(yv), multivec.FromVector(xv))
					for i := range yv {
						if !almostEqual(yv[i], ref.Data[i], 1e-12) {
							t.Fatalf("%s threads=%d: sym one-column Mul differs at %d", name, threads, i)
						}
					}
				}
			}
		}
	}
}

// TestSymMulBitwiseDeterministic checks the schedule's core guarantee:
// at a fixed pool size the result is bitwise-identical across repeated
// runs — the partition and the reduction order depend only on the
// sparsity pattern and the thread count, never on scheduling.
func TestSymMulBitwiseDeterministic(t *testing.T) {
	for name, a := range symTestMatrices() {
		s, err := NewSym(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, threads := range []int{2, 4, 7} {
			usePool(t, threads)
			for _, m := range []int{1, 4, 8, 16} {
				r := rng.New(uint64(threads)*101 + uint64(m))
				x := multivec.New(a.N(), m)
				for i := range x.Data {
					x.Data[i] = r.Normal()
				}
				want := multivec.New(a.N(), m)
				s.Mul(want, x)
				for rep := 0; rep < 3; rep++ {
					got := multivec.New(a.N(), m)
					// Poison so stale zeros would be caught.
					for i := range got.Data {
						got.Data[i] = 123
					}
					s.Mul(got, x)
					for i := range got.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%s threads=%d m=%d rep=%d: not bitwise-deterministic at %d",
								name, threads, m, rep, i)
						}
					}
				}
			}
		}
	}
}

// TestSymMulDeterministicAcrossPoolSizes moves the pool through
// several sizes and back: the split a multiply runs is rebuilt for
// each size, and the result at a size must not depend on which sizes
// came before it.
func TestSymMulDeterministicAcrossPoolSizes(t *testing.T) {
	a := Random(RandomOptions{NB: 180, BlocksPerRow: 9, Bandwidth: 15, NoWrap: true, Seed: 31})
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	const m = 8
	r := rng.New(77)
	x := multivec.New(a.N(), m)
	for i := range x.Data {
		x.Data[i] = r.Normal()
	}
	first := map[int]*multivec.MultiVec{}
	for _, poolSize := range []int{4, 1, 2, 8, 4, 2, 1} {
		usePool(t, poolSize)
		y := multivec.New(a.N(), m)
		s.Mul(y, x)
		want, seen := first[poolSize]
		if !seen {
			first[poolSize] = y
			continue
		}
		for i := range want.Data {
			if y.Data[i] != want.Data[i] {
				t.Fatalf("pool size %d: result at %d changed after other sizes ran", poolSize, i)
			}
		}
	}
}

// TestSymSIMDBitwiseMatchesGo pins the one Go symmetric kernel
// Mul dispatches past m = 1, symGspmvGeneric, against every kernel Mul
// can run — the AVX-512 row kernel with the AVX2 one on the last m % 8
// columns, the AVX2 one alone, and the Go loops — at m = 1 (against
// symSpmv1 and its three-lane kernel) and every width in gspmvWidths,
// serial and parallel (partial-window scatter included). Skipped on
// hosts without the fast path.
func TestSymSIMDBitwiseMatchesGo(t *testing.T) {
	if !cpufeat.FMA {
		t.Skip("no symmetric SIMD fast path on this host")
	}
	for name, a := range symTestMatrices() {
		s, err := NewSym(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, threads := range []int{1, 4} {
			usePool(t, threads)
			for _, m := range append([]int{1}, gspmvWidths...) {
				r := rng.New(uint64(m) + 7)
				x := multivec.New(a.N(), m)
				for i := range x.Data {
					x.Data[i] = r.Normal()
				}
				want := multivec.New(a.N(), m)
				s.MulGenericKernel(want, x)
				for _, k := range gspmvKernels {
					got := multivec.New(a.N(), m)
					withKernel(k.simd, k.zmm, func() { s.Mul(got, x) })

					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%s threads=%d m=%d %s: data[%d] = %v dispatched, %v generic: not bitwise-identical",
								name, threads, m, k.name, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestSymSpmv1SIMDMatchesGoOnSpecials: the m = 1 three-lane kernel
// gives symSpmv1's bits with NaN, infinities, signed zeros and a
// subnormal planted in x and in the blocks, over the whole matrix and
// over sub-ranges [lo, hi), one of which scatters into a partial
// window. y rows outside the range and the window's untouched rows
// must keep what they held.
func TestSymSpmv1SIMDMatchesGoOnSpecials(t *testing.T) {
	if !cpufeat.FMA {
		t.Skip("no symmetric SIMD fast path on this host")
	}
	checkSymSpecials(t, 1)
}

// TestSymGspmvSIMDMatchesGoOnSpecials is the same check for the row
// kernels at every width in gspmvWidths: the AVX-512 one with its AVX2
// tail and the AVX2 one alone give symGspmvGeneric's bits.
func TestSymGspmvSIMDMatchesGoOnSpecials(t *testing.T) {
	if !cpufeat.FMA {
		t.Skip("no symmetric SIMD fast path on this host")
	}
	for _, m := range gspmvWidths {
		checkSymSpecials(t, m)
	}
}

// checkSymSpecials runs one width-m range multiply of each test matrix,
// with specials planted in x and in the blocks, under each assembly
// kernel and under the Go loops, and compares y and the partial window
// bit for bit.
func checkSymSpecials(t *testing.T, m int) {
	t.Helper()
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324}
	for name, a := range symTestMatrices() {
		s, err := NewSym(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := rng.New(17 + uint64(m))
		x := make([]float64, s.N()*m)
		r.FillNormal(x)
		h := &SymMatrix{nb: s.nb, rowPtr: s.rowPtr, colIdx: s.colIdx, vals: append([]float64(nil), s.vals...)}
		for k := 0; k < 1+len(x)/8; k++ {
			x[r.Intn(len(x))] = specials[r.Intn(len(specials))]
			h.vals[r.Intn(len(h.vals))] = specials[r.Intn(len(specials))]
		}
		nb, bm := s.nb, BlockDim*m
		ranges := [][2]int{{0, nb}, {nb / 3, 2 * nb / 3}, {nb / 2, nb}, {nb - 1, nb}}
		if s.colIdx[s.rowPtr[2*nb/3]-1] < int32(2*nb/3) {
			t.Fatalf("%s: rows [%d, %d) scatter into no window", name, nb/3, 2*nb/3)
		}
		for _, rg := range ranges {
			lo, hi := rg[0], rg[1]
			run := func(simd, zmm bool) (y, part []float64) {
				y = make([]float64, s.N()*m)
				for i := range y {
					y[i] = 123 // what the kernel must leave outside its range
				}
				clear(y[bm*lo : bm*hi])
				part = make([]float64, bm*(nb-hi))
				for i := range part {
					part[i] = float64(i%5) - 2
				}
				withKernel(simd, zmm, func() { h.mulRange(y, x, part, m, false, lo, hi) })
				return y, part
			}
			wantY, wantPart := run(false, false)
			for _, k := range gspmvKernels[:2] {
				gotY, gotPart := run(k.simd, k.zmm)
				if i := sameBits(gotY, wantY); i >= 0 {
					t.Fatalf("%s m=%d %s rows [%d,%d): y[%d] = %v, want %v", name, m, k.name, lo, hi, i, gotY[i], wantY[i])
				}
				if i := sameBits(gotPart, wantPart); i >= 0 {
					t.Fatalf("%s m=%d %s rows [%d,%d): part[%d] = %v, want %v", name, m, k.name, lo, hi, i, gotPart[i], wantPart[i])
				}
			}
		}
	}
}

// TestSymSIMDEmptyRow covers the zero-blocks row edge for the
// symmetric kernels (the m = 1 one and the row kernels with and
// without their tails must leave it without disturbing scatter already
// accumulated in that row).
func TestSymSIMDEmptyRow(t *testing.T) {
	if !cpufeat.FMA {
		t.Skip("no symmetric SIMD fast path on this host")
	}
	// Row 1 has no stored upper-triangle blocks of its own but
	// receives scatter from row 0.
	b := NewBuilder(3)
	b.AddDiag(2)
	b.AddBlock(0, 1, blas.Ident3())
	b.AddBlock(1, 0, blas.Ident3())
	a := b.Build()
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 3, 4, 8, 11, 16} {
		r := rng.New(5)
		x := multivec.New(a.N(), m)
		for i := range x.Data {
			x.Data[i] = r.Normal()
		}
		want := multivec.New(a.N(), m)
		withKernel(false, false, func() { s.Mul(want, x) })
		for _, k := range gspmvKernels[:2] {
			got := multivec.New(a.N(), m)
			withKernel(k.simd, k.zmm, func() { s.Mul(got, x) })
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("m=%d %s: data[%d] = %v, want %v", m, k.name, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestSymPerColumnBitwiseInvariance checks the invariant the solvers
// rely on: column c of a width-m symmetric Mul is bitwise-identical
// to a one-column Mul of that column at the same pool size, for every m —
// the per-column operation sequence does not depend on m.
func TestSymPerColumnBitwiseInvariance(t *testing.T) {
	a := Random(RandomOptions{NB: 90, BlocksPerRow: 7, Bandwidth: 10, NoWrap: true, Seed: 41})
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 3} {
		usePool(t, threads)
		for _, m := range []int{2, 4, 8, 16} {
			r := rng.New(uint64(m) * 13)
			x := multivec.New(a.N(), m)
			for i := range x.Data {
				x.Data[i] = r.Normal()
			}
			y := multivec.New(a.N(), m)
			s.Mul(y, x)
			for c := 0; c < m; c++ {
				xc := make([]float64, a.N())
				yc := make([]float64, a.N())
				for i := 0; i < a.N(); i++ {
					xc[i] = x.Data[i*m+c]
				}
				s.Mul(multivec.FromVector(yc), multivec.FromVector(xc))
				for i := 0; i < a.N(); i++ {
					if yc[i] != y.Data[i*m+c] {
						t.Fatalf("threads=%d m=%d col=%d: row %d not bitwise-equal to its column alone",
							threads, m, c, i)
					}
				}
			}
		}
	}
}

// TestSymAccounting pins the symmetric flop and traffic accounting to
// the general matrix's: same flops (every block still applied the
// same number of times), roughly half the matrix bytes.
func TestSymAccounting(t *testing.T) {
	a := Random(RandomOptions{NB: 100, BlocksPerRow: 8, Seed: 51})
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 8} {
		if s.FlopCount(m) != a.FlopCount(m) {
			t.Fatalf("m=%d: sym flops %d != general %d", m, s.FlopCount(m), a.FlopCount(m))
		}
		symMat := s.TrafficBytes(m) - int64(a.NB())*BlockDim*int64(m)*8*3
		genMat := a.TrafficBytes(m) - int64(a.NB())*BlockDim*int64(m)*8*3
		wantMat := int64(s.NNZB())*(BlockSize*8+4) + int64(a.NB()+1)*4
		if symMat != wantMat {
			t.Fatalf("m=%d: sym matrix traffic %d, want %d", m, symMat, wantMat)
		}
		// nnzb_sym = (nnzb + nb)/2, so the matrix-byte ratio tends to
		// one half as blocks-per-row grows; at bpr=8 it is ~0.56.
		if ratio := float64(symMat) / float64(genMat); ratio > 0.60 {
			t.Fatalf("m=%d: sym matrix traffic ratio %.3f, want ~0.5", m, ratio)
		}
	}
}
