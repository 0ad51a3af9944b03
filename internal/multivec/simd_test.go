package multivec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/rng"
)

// The package's two-implementation contract: with the AVX2 kernels on
// and forced off, every block-CG op returns the same bits. On a host
// without AVX2 both sides run the Go loops and the tests are vacuous.

// withoutSIMD runs fn with the generic Go loops forced.
func withoutSIMD(fn func()) {
	saved := simd
	simd = false
	defer func() { simd = saved }()
	fn()
}

// sameBits reports the first index where a and b differ in bits; two
// NaNs count as equal whatever their payloads (see the package
// comment). It returns -1 when the slices agree.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// fillHostile fills x with normal deviates and, when hostile, plants
// NaN, +-Inf, +-0 and a subnormal at random places.
func fillHostile(x []float64, s *rng.Stream, hostile bool) {
	s.FillNormal(x)
	if !hostile || len(x) == 0 {
		return
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324}
	for k := 0; k < 1+len(x)/16; k++ {
		x[s.Intn(len(x))] = specials[s.Intn(len(specials))]
	}
}

// kernelOutputs runs the three block-CG ops on one set of operands,
// through the pooled entry points and again through the row-range
// kernels on [lo, hi), and returns everything they wrote.
func kernelOutputs(n, m int, seed uint64, hostile bool) [][]float64 {
	s := rng.New(seed)
	x, y, r := New(n, m), New(n, m), New(n, m)
	a := blas.NewDense(m, m)
	for _, d := range [][]float64{x.Data, y.Data, r.Data, a.Data} {
		fillHostile(d, s, hostile)
	}
	lo, hi := 0, 0
	if n > 0 {
		lo = s.Intn(n)
		hi = lo + s.Intn(n-lo+1)
	}

	g := blas.NewDense(m, m)
	GramInto(g, x, y)
	addmul := r.Clone()
	addmul.AddMul(x, a)
	setmuladd := New(n, m)
	setmuladd.SetMulAdd(r, x, a)

	gSub := make([]float64, m*m)
	fillHostile(gSub, s, hostile) // the range kernels accumulate
	gramRange(gSub, x, y, lo, hi)
	addmulSub := r.Clone()
	addMulRange(addmulSub, x, a.Data, lo, hi)
	setmuladdSub := y.Clone()
	setMulAddRange(setmuladdSub, r, x, a.Data, lo, hi)

	return [][]float64{g.Data, addmul.Data, setmuladd.Data,
		gSub, addmulSub.Data, setmuladdSub.Data}
}

var kernelOutputNames = []string{"GramInto", "AddMul", "SetMulAdd",
	"gramRange", "addMulRange", "setMulAddRange"}

// checkSIMDMatchesGeneric fails t when the two implementations differ
// on the given operands.
func checkSIMDMatchesGeneric(t *testing.T, n, m int, seed uint64, hostile bool) {
	t.Helper()
	got := kernelOutputs(n, m, seed, hostile)
	var want [][]float64
	withoutSIMD(func() { want = kernelOutputs(n, m, seed, hostile) })
	for k := range want {
		if i := sameBits(got[k], want[k]); i >= 0 {
			t.Fatalf("n=%d m=%d seed=%d hostile=%v %s: element %d = %x with SIMD, %x without",
				n, m, seed, hostile, kernelOutputNames[k], i, got[k][i], want[k][i])
		}
	}
}

func TestSIMDKernelsBitwiseMatchGeneric(t *testing.T) {
	if !simd {
		t.Log("no AVX2 on this host: both sides run the Go loops")
	}
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			withThreads(t, threads, func() {
				for m := 1; m <= 33; m++ {
					for _, n := range []int{0, 1, 7, 3000} {
						seed := uint64(1000*m + n)
						checkSIMDMatchesGeneric(t, n, m, seed, false)
						checkSIMDMatchesGeneric(t, n, m, seed+1, true)
					}
				}
			})
		})
	}
}

// The dispatch is by shape: a non-square small operand must take the
// Go loops even when both widths are multiples of 4.
func TestNonSquareOperandsUseGenericLoops(t *testing.T) {
	const n = 50
	s := rng.New(5)
	x, v := New(n, 8), New(n, 4)
	a := blas.NewDense(8, 4)
	for _, d := range [][]float64{x.Data, v.Data, a.Data} {
		s.FillNormal(d)
	}
	want := v.Clone()
	withoutSIMD(func() { want.AddMul(x, a) })
	v.AddMul(x, a)
	if i := sameBits(v.Data, want.Data); i >= 0 {
		t.Fatalf("8x4 AddMul element %d = %x, generic %x", i, v.Data[i], want.Data[i])
	}
	g, gw := blas.NewDense(8, 4), blas.NewDense(8, 4)
	GramInto(g, x, v)
	withoutSIMD(func() { GramInto(gw, x, v) })
	if i := sameBits(g.Data, gw.Data); i >= 0 {
		t.Fatalf("8x4 Gram element %d = %x, generic %x", i, g.Data[i], gw.Data[i])
	}
}

func FuzzSIMDKernels(f *testing.F) {
	f.Add(uint16(64), uint8(16), uint64(1), false)
	f.Add(uint16(5), uint8(4), uint64(2), true)
	f.Add(uint16(301), uint8(32), uint64(3), true)
	f.Add(uint16(0), uint8(12), uint64(4), false)
	f.Fuzz(func(t *testing.T, n uint16, m uint8, seed uint64, hostile bool) {
		checkSIMDMatchesGeneric(t, int(n%512), int(m%40)+1, seed, hostile)
	})
}
