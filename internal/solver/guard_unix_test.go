//go:build unix

package solver

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/multivec"
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

// TestIC0SweepsReadNothingPastTheirArrays runs ApplyBlock at m = 1 to
// 5, 7, 17 and 31, assembly and Go, on a factor whose arrays each end
// at an unreadable page, as do z and r: the widths whose last group
// runs under an AVX-512 opmask must touch nothing past their lanes. The
// one read the assembly makes outside a block — the backward sweep
// loads a block's last row four wide — must land in the float64 of
// slack setPattern keeps behind lower.
func TestIC0SweepsReadNothingPastTheirArrays(t *testing.T) {
	a := spdMatrix(91, 37, 5)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	g := &IC0{
		nb: ic.nb, rowPtr: guarded(t, ic.rowPtr, 0), colIdx: guarded(t, ic.colIdx, 0),
		lower: guarded(t, ic.lower, 1), invDiag: guarded(t, ic.invDiag, 0),
	}
	if !faults(func() { guardSink = *(*float64)(unsafe.Add(unsafe.Pointer(&g.lower[0]), 8*(len(g.lower)+1))) }) {
		t.Fatal("the guard page is readable: this test proves nothing")
	}
	for _, m := range []int{1, 2, 3, 4, 5, 7, 17, 31} {
		r := multivec.New(n, m)
		copy(r.Data, randVec(int64(92+m), n*m))
		want := multivec.New(n, m)
		ic.ApplyBlock(want, r)
		for _, simd := range simdModes {
			z := &multivec.MultiVec{N: n, M: m, Data: guarded(t, make([]float64, n*m), 0)}
			gr := &multivec.MultiVec{N: n, M: m, Data: guarded(t, r.Data, 0)}
			sweep := func() { g.ApplyBlock(z, gr) }
			faulted := false
			withSIMD(simd, func() { faulted = faults(sweep) })
			if faulted {
				t.Fatalf("m=%d simd=%v: a sweep touched memory past one of its arrays", m, simd)
			}
			if i := firstDiff(z.Data, want.Data); i >= 0 {
				t.Fatalf("m=%d simd=%v: z[%d] = %v, want %v", m, simd, i, z.Data[i], want.Data[i])
			}
		}
	}
}
