//go:build unix

package bcrs

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
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
