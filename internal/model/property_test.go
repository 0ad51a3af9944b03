package model

import (
	"math"
	"testing"
	"testing/quick"
)

// TestRelativeTimePropertyBounds: for any machine and shape, r(1) is
// 1 (or the compute bound's excess) and r(m) is nondecreasing and
// never exceeds what m independent multiplies would cost under the
// same model.
func TestRelativeTimePropertyBounds(t *testing.T) {
	prop := func(bRaw, fRaw float64, nbRaw, bprRaw uint16) bool {
		b := 1e9 * (1 + math.Mod(math.Abs(bRaw), 100))
		f := 1e9 * (1 + math.Mod(math.Abs(fRaw), 200))
		nb := 1000 + int(nbRaw)
		bpr := 1 + int(bprRaw)%90
		g := GSPMV{
			Machine: Machine{B: b, F: f},
			Shape:   Shape{NB: nb, NNZB: nb * bpr},
			K:       DefaultK,
		}
		prev := 0.0
		for m := 1; m <= 32; m++ {
			r := g.RelativeTime(m)
			if r < prev-1e-12 {
				return false // must be nondecreasing
			}
			// Never worse than m times the single-vector *upper*
			// cost T(1) (both bounds scale at most linearly in m).
			if r > float64(m)*g.T(1)/g.Tbw(1)+1e-9 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMRHSModelSaneProperty: for any iteration counts with
// N >= N1 >= N2 >= 1, the modeled step time is positive and the
// optimal m is within the searched range.
func TestMRHSModelSaneProperty(t *testing.T) {
	prop := func(nRaw, n1Raw, n2Raw uint8, bprRaw uint8) bool {
		n2 := 1 + int(n2Raw)%100
		n1 := n2 + int(n1Raw)%100
		n := n1 + int(nRaw)%100
		bpr := 2 + int(bprRaw)%80
		p := MRHS{
			GSPMV: GSPMV{Machine: WSM, Shape: Shape{NB: 100000, NNZB: 100000 * bpr}, K: DefaultK},
			N:     n, N1: n1, N2: n2, Cmax: 30,
		}
		mo := p.MOptimal(64)
		if mo < 1 || mo > 64 {
			return false
		}
		for _, m := range []int{1, 2, mo, 64} {
			if !(p.StepTime(m) > 0) {
				return false
			}
		}
		// The optimum can never be slower than m = 1.
		return p.StepTime(mo) <= p.StepTime(1)+1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
