package hydro

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/blas"
)

// TestPairTensorPSDProperty: for any radii, gap and direction inside
// the cutoff, the pair tensor must be symmetric positive
// semidefinite — the invariant that makes Rlub PSD by construction.
func TestPairTensorPSDProperty(t *testing.T) {
	f := func(ra, rb, xiRaw, d1, d2, d3 float64) bool {
		a1 := 1 + math.Mod(math.Abs(ra), 10)
		a2 := 1 + math.Mod(math.Abs(rb), 10)
		xi := 1e-4 + math.Mod(math.Abs(xiRaw), 0.99)
		d := blas.Vec3{d1, d2, d3}
		n := d.Norm()
		if n < 1e-9 || math.IsNaN(n) || math.IsInf(n, 0) {
			return true
		}
		d = d.Scale(1 / n)
		m := PairTensor(a1, a2, xi, d, Options{Phi: 0.2})
		if m != m.Transpose3() {
			return false
		}
		// Quadratic form nonnegative on a few probes.
		for _, v := range []blas.Vec3{d, {1, 0, 0}, {0, 1, 0}, {0.3, -0.5, 0.8}} {
			if v.Dot(m.MulV(v)) < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestResistanceFunctionsMonotoneProperty: XA and YA decrease as the
// gap opens, for any radius ratio.
func TestResistanceFunctionsMonotoneProperty(t *testing.T) {
	f := func(bRaw, x1Raw, x2Raw float64) bool {
		beta := 0.1 + math.Mod(math.Abs(bRaw), 10)
		x1 := 1e-4 + math.Mod(math.Abs(x1Raw), 0.5)
		x2 := x1 + 1e-4 + math.Mod(math.Abs(x2Raw), 0.4)
		return XA(x1, beta) > XA(x2, beta) && YA(x1, beta) > YA(x2, beta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
