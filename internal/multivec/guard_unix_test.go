//go:build unix

package multivec

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

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

// TestChebyshevStepStaysInsideItsArrays runs the fused pass, assembly
// and Go, on four arrays that each end at an unreadable page, at
// lengths on both sides of the four-wide loop's last full group.
func TestChebyshevStepStaysInsideItsArrays(t *testing.T) {
	probe := guarded(t, make([]float64, 1), 0)
	if !faults(func() { guardSink = *(*float64)(unsafe.Add(unsafe.Pointer(&probe[0]), 8)) }) {
		t.Fatal("the guard page is readable: this test proves nothing")
	}
	for _, n := range []int{1, 3, 4, 5, 8, 11, 64, 67} {
		y, tt, cur, prev := chebOperands(n, uint64(n), false)
		want := twoPasses(y, tt, cur, prev, 0.75, -1.25, 0.5)
		for _, on := range []bool{true, false} {
			gy, gt := guarded(t, y, 0), guarded(t, tt, 0)
			gc, gp := guarded(t, cur, 0), guarded(t, prev, 0)
			step := func() { ChebyshevStep(gy, gt, gc, gp, 0.75, -1.25, 0.5) }
			faulted := false
			if on {
				faulted = faults(step)
			} else {
				withoutSIMD(func() { faulted = faults(step) })
			}
			if faulted {
				t.Fatalf("n=%d simd=%v: the pass touched memory past one of its arrays", n, on)
			}
			if i := sameBits(append(gy, gt...), want); i >= 0 {
				t.Fatalf("n=%d simd=%v: element %d differs from the two passes", n, on, i)
			}
		}
	}
}

// TestColumnSweepsStayInsideTheirLanes runs the column sweeps, AVX2
// and Go, on blocks whose storage ends with the last lane of the last
// row, flush against an unreadable page, and on scalar slices of
// exactly w elements that do too: a kernel that reads or writes past a
// block or a slice faults. w runs through the four-wide groups'
// remainders.
func TestColumnSweepsStayInsideTheirLanes(t *testing.T) {
	const n = 50
	s := rng.New(4)
	for _, w := range []int{1, 3, 4, 5, 7, 8, 17, 31, 32, 33} {
		block := func() *MultiVec {
			v := hostileBlock(n, w, s, false)
			return &MultiVec{N: n, M: w, Data: guarded(t, v.Data, 0)}
		}
		scalars := func() []float64 {
			a := make([]float64, w)
			s.FillNormal(a)
			return guarded(t, a, 0)
		}
		x, r, p, ap := block(), block(), block(), block()
		alpha, rr, dots := scalars(), scalars(), scalars()
		for _, on := range []bool{true, false} {
			sweeps := func() {
				ColDots(dots, p, ap)
				ColUpdate(x, r, p, ap, alpha, rr)
				ColDirection(p, r, alpha)
				ColThreeTerm(x, r, p, alpha, rr, dots)
				ColResidual(r, p, ap, dots, rr)
			}
			faulted := false
			if on {
				faulted = faults(sweeps)
			} else {
				withoutSIMD(func() { faulted = faults(sweeps) })
			}
			if faulted {
				t.Fatalf("w=%d simd=%v: a sweep touched memory past its block or slices", w, on)
			}
		}
	}
}
