package multivec

import (
	"testing"

	"repro/internal/rng"
)

// chebOperands returns four arrays of length n for ChebyshevStep.
func chebOperands(n int, seed uint64, hostile bool) (y, t, cur, prev []float64) {
	s := rng.New(seed)
	y, t, cur, prev = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for _, d := range [][]float64{y, t, cur, prev} {
		fillHostile(d, s, hostile)
	}
	return
}

// twoPasses is the recurrence as chebyshev.ApplyBlock ran it before
// the passes were fused — the three-term update over all elements, then
// the term added to the sum — on copies; it returns y followed by t.
func twoPasses(y, t, cur, prev []float64, alpha, beta, c float64) []float64 {
	y, t = append([]float64(nil), y...), append([]float64(nil), t...)
	for i := range t {
		t[i] = 2*(alpha*t[i]+beta*cur[i]) - prev[i]
	}
	for i := range y {
		y[i] += c * t[i]
	}
	return append(y, t...)
}

// TestChebyshevStepMatchesTwoPasses: the fused pass, in assembly and in
// Go, writes the bits of the two passes it replaced, at every length
// around the assembly's four-wide groups and at the stepper's, on
// finite operands and hostile ones.
func TestChebyshevStepMatchesTwoPasses(t *testing.T) {
	if !simd {
		t.Log("no AVX2 on this host: both sides run the Go loop")
	}
	lengths := []int{3000, 48000}
	for n := 0; n <= 41; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, hostile := range []bool{false, true} {
			y, tt, cur, prev := chebOperands(n, uint64(2*n+7), hostile)
			alpha, beta, c := 6.4e-7, -1.0008, 0.0371
			want := twoPasses(y, tt, cur, prev, alpha, beta, c)
			run := func() []float64 {
				gy, gt := append([]float64(nil), y...), append([]float64(nil), tt...)
				ChebyshevStep(gy, gt, cur, prev, alpha, beta, c)
				return append(gy, gt...)
			}
			got := run()
			var gotGo []float64
			withoutSIMD(func() { gotGo = run() })
			for name, g := range map[string][]float64{"assembly": got, "Go": gotGo} {
				if i := sameBits(g, want); i >= 0 {
					t.Fatalf("n=%d hostile=%v %s: element %d = %x, the two passes give %x", n, hostile, name, i, g[i], want[i])
				}
			}
		}
	}
}
