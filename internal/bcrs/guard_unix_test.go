//go:build unix

package bcrs

import (
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// guarded returns a copy of src, with room for slack more elements
// behind it, that ends flush against a page nothing may touch: a load
// of one byte past len(src)+slack elements faults. The slack is what
// a kernel is allowed to read and never store.
func guarded[T any](t *testing.T, src []T, slack int) []T {
	t.Helper()
	var zero T
	size, page := (len(src)+slack)*int(unsafe.Sizeof(zero)), syscall.Getpagesize()
	span := (size + page) / page * page // at least one byte of room
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // the test is over either way
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	dst := unsafe.Slice((*T)(unsafe.Pointer(&mem[span-size])), len(src)+slack)
	copy(dst, src)
	return dst[:len(src)]
}

var guardSink float64 // keeps the probing load alive

// faults reports whether fn dies on a memory fault.
func faults(fn func()) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() { faulted = recover() != nil }()
	fn()
	return false
}

// TestSpmv1ReadsNothingPastItsArrays runs the m = 1 kernel, assembly
// and Go, with every array it reads ending at an unreadable page. The
// assembly takes each block's columns as overlapping four-wide loads;
// the last of a block, and so of vals, must end with the block.
func TestSpmv1ReadsNothingPastItsArrays(t *testing.T) {
	a := Random(RandomOptions{NB: 41, BlocksPerRow: 4, Seed: 5})
	x := make([]float64, a.NCols())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, a.N())
	a.MulVec(want, x)

	gx := guarded(t, x, 0)
	if !faults(func() { guardSink = *(*float64)(unsafe.Add(unsafe.Pointer(&gx[0]), 8*len(gx))) }) {
		t.Fatal("the guard page is readable: this test proves nothing")
	}
	g := NewMatrix(a.nb, a.ncb, guarded(t, a.rowPtr, 0), guarded(t, a.colIdx, 0), guarded(t, a.vals, 0))
	for _, simd := range simdModes {
		got := guarded(t, make([]float64, a.N()), 0)
		faulted := false
		withSIMD(simd, func() { faulted = faults(func() { g.MulVec(got, gx) }) })
		if faulted {
			t.Fatalf("simd=%v: MulVec touched memory past one of its arrays", simd)
		}
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("simd=%v: y[%d] = %v, want %v", simd, i, got[i], want[i])
		}
	}
}

// TestGSPMVReadsNothingPastItsArrays runs the wide-m row kernels —
// AVX-512, AVX2 and Go — with every array they read or write ending at
// an unreadable page, at the widths that take the zmm kernel's
// 16-column pass, its 8-column tail and both. Each case has a block in
// the last block column, so the last x row is read up to its end.
func TestGSPMVReadsNothingPastItsArrays(t *testing.T) {
	for name, a := range spmv1Cases() {
		if !slices.Contains(a.colIdx, int32(a.ncb-1)) {
			t.Fatalf("%s: no block in the last block column", name)
		}
		g := NewMatrix(a.nb, a.ncb, guarded(t, a.rowPtr, 0), guarded(t, a.colIdx, 0), guarded(t, a.vals, 0))
		for _, m := range gspmvWidths {
			x := multivec.New(a.NCols(), m)
			for i := range x.Data {
				x.Data[i] = float64(i%7) - 3
			}
			want := multivec.New(a.N(), m)
			withKernel(false, false, func() { a.Mul(want, x) })
			gx := &multivec.MultiVec{N: x.N, M: m, Data: guarded(t, x.Data, 0)}
			for _, k := range gspmvKernels {
				got := &multivec.MultiVec{N: a.N(), M: m, Data: guarded(t, make([]float64, a.N()*m), 0)}
				faulted := false
				withKernel(k.simd, k.zmm, func() { faulted = faults(func() { g.Mul(got, gx) }) })
				if faulted {
					t.Fatalf("%s m=%d %s: Mul touched memory past one of its arrays", name, m, k.name)
				}
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("%s m=%d %s: y[%d] = %v, want %v", name, m, k.name, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestSymReadsNothingPastItsArrays runs the symmetric kernels — the
// m = 1 three-lane one, the AVX-512 row kernel's 16- and 8-column
// passes, the AVX2 one with its 1-, 2- and 3-column tails, alone and
// after the AVX-512 groups, and the Go loops — with rowPtr, colIdx,
// vals, x, y and the partial windows ending at an unreadable page, at
// m = 1..17 and 33, serially and on
// two threads, where the first range scatters into its window. Each
// case has a block in the last block column, which reads the last x
// row to its end and writes the last y row; in "last-off-diagonal" the
// last block row stores nothing, so the last block of vals is one that
// scatters.
func TestSymReadsNothingPastItsArrays(t *testing.T) {
	cases := symTestMatrices()
	b := NewBuilder(5)
	r := rng.New(6)
	for i := 0; i < 4; i++ {
		b.AddBlock(i, i, blas.Ident3())
	}
	for _, ij := range [][2]int{{1, 4}, {3, 4}} {
		var v blas.Mat3
		r.FillNormal(v[:])
		b.AddBlock(ij[0], ij[1], v)
		b.AddBlock(ij[1], ij[0], v.Transpose3())
	}
	cases["last-off-diagonal"] = b.Build()
	for name, a := range cases {
		s, err := NewSym(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Contains(s.colIdx, int32(s.nb-1)) {
			t.Fatalf("%s: no block in the last block column", name)
		}
		g := &SymMatrix{nb: s.nb, ndiag: s.ndiag,
			rowPtr: guarded(t, s.rowPtr, 0), colIdx: guarded(t, s.colIdx, 0), vals: guarded(t, s.vals, 0)}
		g.fillFn, g.foldFn = g.fill, g.fold
		for _, threads := range []int{1, 2} {
			usePool(t, threads)
			for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33} {
				x := multivec.New(s.N(), m)
				for i := range x.Data {
					x.Data[i] = float64(i%7) - 3
				}
				want := multivec.New(s.N(), m)
				withKernel(false, false, func() { s.Mul(want, x) })
				gx := &multivec.MultiVec{N: x.N, M: m, Data: guarded(t, x.Data, 0)}
				for _, k := range gspmvKernels {
					got := &multivec.MultiVec{N: s.N(), M: m, Data: guarded(t, make([]float64, s.N()*m), 0)}
					// The windows, sized exactly: run makes no scratch of its own.
					g.splitFor(parallel.Default())
					g.scratch = guarded(t, make([]float64, g.winRows*BlockDim*m), 0)
					faulted := false
					withKernel(k.simd, k.zmm, func() { faulted = faults(func() { g.Mul(got, gx) }) })
					if faulted {
						t.Fatalf("%s threads=%d m=%d %s: Mul touched memory past one of its arrays", name, threads, m, k.name)
					}
					if i := sameBits(got.Data, want.Data); i >= 0 {
						t.Fatalf("%s threads=%d m=%d %s: y[%d] = %v, want %v", name, threads, m, k.name, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}
