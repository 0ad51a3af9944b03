package neighbor

import (
	"math"
	"testing"

	"repro/internal/blas"
)

// wrapLoop and minImageLoop are Wrap and MinImage as they were before
// their loops were bounded: the reference for every coordinate within
// two boxes, where they end after two turns at most.
func wrapLoop(v, box float64) float64 {
	for v < 0 {
		v += box
	}
	for v >= box {
		v -= box
	}
	return v
}

func minImageLoop(v, box float64) float64 {
	for v > box/2 {
		v -= box
	}
	for v < -box/2 {
		v += box
	}
	return v
}

// checkBounded is the contract of Wrap and MinImage for any float64
// pair. They return (the test's or the fuzzer's timeout is the hang
// detector). A box that is not positive changes nothing. NaN stays NaN
// and an infinity stays non-finite. A coordinate within two boxes comes
// out with the bits the bare loops give it, and a finite one further
// out lands in range, unless the box is so small that v/box overflows.
func checkBounded(t *testing.T, v, box float64) {
	t.Helper()
	w, d := Wrap(blas.Vec3{v, v, v}, box)[1], MinImage(blas.Vec3{v, v, v}, box)[2]
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	finite := func(x float64) bool { return x-x == 0 }
	ok := true
	switch {
	case box <= 0:
		ok = same(w, v) && same(d, v)
	case v != v:
		ok = w != w && d != d
	case !finite(box): // returning is all that is asked
	case !finite(v):
		ok = !finite(w) && !finite(d)
	case math.Abs(v) <= 2*box:
		ok = same(w, wrapLoop(v, box)) && same(d, minImageLoop(v, box))
	case finite(v / box):
		ok = w >= 0 && w < box && math.Abs(d) <= box/2
	}
	if !ok {
		t.Fatalf("box %v: Wrap(%v) = %v, MinImage = %v", box, v, w, d)
	}
}

// TestWrapBoundedOnHostileCoordinates: the values that used to hang the
// stepper — an overflowed dt*u, a checkpoint's garbage — and the edges
// around them.
func TestWrapBoundedOnHostileCoordinates(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, box := range []float64{10, 1e-3, 1, 5e-324, 1e300, inf, 0, -1, nan} {
		for _, v := range []float64{0, math.Copysign(0, -1), 3, -3, 10, -10, 15, 20, -20, 20.000000000000004, 25,
			-31, 1e15, -1e17, 1e300, -1e300, math.MaxFloat64, 5e-324, -5e-324, inf, -inf, nan} {
			checkBounded(t, v, box)
		}
	}
	// Exact where the arithmetic is: a whole number of boxes away.
	if w := Wrap(blas.Vec3{1e6 + 3, -1e6 + 3, 3}, 10); w != (blas.Vec3{3, 3, 3}) {
		t.Fatalf("Wrap = %v, want {3 3 3}", w)
	}
	if d := MinImage(blas.Vec3{1e6 + 3, -1e6 - 3, 7}, 10); d != (blas.Vec3{3, -3, -3}) {
		t.Fatalf("MinImage = %v, want {3 -3 -3}", d)
	}
}

// FuzzWrapTerminates runs the same contract over arbitrary bit
// patterns (make fuzz-neighbor).
func FuzzWrapTerminates(f *testing.F) {
	f.Add(1e300, 10.0)
	f.Add(math.Inf(-1), 10.0)
	f.Add(-19.999, 10.0)
	f.Add(3.0, 5e-324)
	f.Add(1.0, 0.0)
	f.Fuzz(func(t *testing.T, v, box float64) { checkBounded(t, v, box) })
}
