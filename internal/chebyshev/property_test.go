package chebyshev

import (
	"math"
	"testing"
	"testing/quick"
)

// TestCoefficientsLinearProperty: the Chebyshev transform is linear
// in the function.
func TestCoefficientsLinearProperty(t *testing.T) {
	fn1 := math.Sqrt
	fn2 := func(x float64) float64 { return x * x }
	prop := func(aRaw, bRaw float64) bool {
		a := math.Mod(aRaw, 100)
		b := math.Mod(bRaw, 100)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		combo := func(x float64) float64 { return a*fn1(x) + b*fn2(x) }
		c1 := Coefficients(fn1, 1, 5, 12)
		c2 := Coefficients(fn2, 1, 5, 12)
		cc := Coefficients(combo, 1, 5, 12)
		for i := range cc {
			want := a*c1[i] + b*c2[i]
			if math.Abs(cc[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalWithinIntervalAccuracyProperty: for arbitrary evaluation
// points inside the interval, a degree-30 sqrt series is accurate to
// the paper-level tolerance.
func TestEvalWithinIntervalAccuracyProperty(t *testing.T) {
	c := Coefficients(math.Sqrt, 0.25, 9, 30)
	prop := func(xRaw float64) bool {
		x := 0.25 + math.Mod(math.Abs(xRaw), 8.75)
		got := eval(c, 0.25, 9, x)
		return math.Abs(got-math.Sqrt(x)) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
