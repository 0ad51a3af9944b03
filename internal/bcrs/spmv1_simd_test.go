package bcrs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/cpufeat"
	"repro/internal/rng"
)

// withSIMD runs fn with the m = 1 assembly kernel allowed or not. On a host
// without AVX2 both settings run the Go loops.
func withSIMD(on bool, fn func()) {
	defer func(saved bool) { cpufeat.AVX2 = saved }(cpufeat.AVX2)
	cpufeat.AVX2 = cpufeat.AVX2 && on
	fn()
}

// simdModes are the settings a kernel test runs under: the host's own,
// and the Go loops forced.
var simdModes = []bool{true, false}

// sameBits returns the first index where a and b differ in bits, -1
// when none does. Two NaNs are equal whatever their payloads: which
// operand's payload an add of two NaNs keeps is the one freedom the
// operation order leaves.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// refSpmv1 is the recurrence both m = 1 kernels promise, one rounding
// per line, written without either of them.
func refSpmv1(a *Matrix, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var acc [3]float64
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			v, xj := a.vals[9*k:9*k+9], x[3*a.colIdx[k]:]
			for r := range acc {
				t := float64(v[3*r] * xj[0])
				t = math.FMA(v[3*r+1], xj[1], t)
				t = math.FMA(v[3*r+2], xj[2], t)
				acc[r] = float64(acc[r] + t)
			}
		}
		copy(y[3*i:], acc[:])
	}
}

// spmv1Cases are the shapes the kernel must get right: scattered and
// banded patterns, rows with no block at all (first, last, adjacent),
// a one-row matrix, a rectangular strip.
func spmv1Cases() map[string]*Matrix {
	holes := NewBuilder(9)
	rect := NewBuilderRect(5, 11)
	s := rng.New(3)
	block := func() (b blas.Mat3) {
		s.FillNormal(b[:])
		return b
	}
	for _, ij := range [][2]int{{1, 0}, {1, 8}, {2, 2}, {5, 1}, {5, 4}, {5, 5}, {5, 7}, {6, 6}} {
		holes.AddBlock(ij[0], ij[1], block())
	}
	for i := 0; i < 5; i++ {
		rect.AddBlock(i, 2*i, block())
		rect.AddBlock(i, 10-i, block())
	}
	return map[string]*Matrix{
		"random":     Random(RandomOptions{NB: 97, BlocksPerRow: 5, Seed: 11}),
		"banded":     Random(RandomOptions{NB: 64, BlocksPerRow: 9, Bandwidth: 3, NoWrap: true, Seed: 12}),
		"empty-rows": holes.Build(),
		"one-row":    Random(RandomOptions{NB: 1, BlocksPerRow: 1, Seed: 13}),
		"rectangle":  rect.Build(),
	}
}

// TestSpmv1BitwiseMatchesReference: the assembly kernel and the Go loop
// both give the reference recurrence's bits, on whole matrices and on
// sub-ranges [lo, hi) — a thread's share — where no y outside the range
// may change; with finite operands and with NaN, infinities, signed
// zeros and a subnormal planted in x and in the blocks.
func TestSpmv1BitwiseMatchesReference(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324}
	for name, a := range spmv1Cases() {
		for _, hostile := range []bool{false, true} {
			s := rng.New(21)
			x := make([]float64, a.NCols())
			s.FillNormal(x)
			if hostile {
				a = NewMatrix(a.nb, a.ncb, a.rowPtr, a.colIdx, append([]float64(nil), a.vals...))
				for k := 0; k < 1+len(x)/8; k++ {
					x[s.Intn(len(x))] = specials[s.Intn(len(specials))]
					a.vals[s.Intn(len(a.vals))] = specials[s.Intn(len(specials))]
				}
			}
			for _, r := range [][2]int{{0, a.nb}, {0, a.nb / 2}, {a.nb / 3, a.nb}, {a.nb / 2, a.nb/2 + 1}, {a.nb, a.nb}} {
				want := make([]float64, a.N())
				for i := range want {
					want[i] = 123 // what a kernel must leave outside its range
				}
				refSpmv1(a, x, want, r[0], r[1])
				for _, simd := range simdModes {
					got := make([]float64, a.N())
					for i := range got {
						got[i] = 123
					}
					withSIMD(simd, func() { spmv1(a.rowPtr, a.colIdx, a.vals, x, got, r[0], r[1]) })
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("%s hostile=%v rows [%d,%d) simd=%v: y[%d] = %v, want %v",
							name, hostile, r[0], r[1], simd, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNewMatrixRejectsWildIndex: the m = 1 kernel checks no index, so
// the constructor must — a column outside the matrix or a row pointer
// that runs backwards panics there, naming the row.
func TestNewMatrixRejectsWildIndex(t *testing.T) {
	good := Random(RandomOptions{NB: 6, BlocksPerRow: 3, Seed: 1})
	arrays := func() ([]int32, []int32) {
		return append([]int32(nil), good.rowPtr...), append([]int32(nil), good.colIdx...)
	}
	for _, c := range []struct {
		name, want string
		spoil      func(rowPtr, colIdx []int32)
	}{
		{"column == ncb", "row 2: column 6", func(_, ci []int32) { ci[good.rowPtr[2]] = 6 }},
		{"negative column", "row 4: column -1", func(_, ci []int32) { ci[good.rowPtr[4]] = -1 }},
		{"huge column", "row 5: column 2147483647", func(_, ci []int32) { ci[len(ci)-1] = math.MaxInt32 }},
		{"rowPtr runs backwards", "row 3: rowPtr", func(rp, _ []int32) { rp[3], rp[4] = rp[4], rp[3] }},
		{"rowPtr starts late", "row 0: rowPtr", func(rp, _ []int32) { rp[0] = 1 }},
		{"rowPtr overshoots", "row 1: rowPtr", func(rp, _ []int32) { rp[2] = int32(len(good.colIdx)) + 1 }},
	} {
		rp, ci := arrays()
		c.spoil(rp, ci)
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			NewMatrix(good.nb, good.ncb, rp, ci, good.vals)
			return
		}()
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: panic %q, want one naming %q", c.name, msg, c.want)
		}
	}
	rp, ci := arrays()
	if err := NewMatrix(good.nb, good.ncb, rp, ci, good.vals).Validate(); err != nil {
		t.Fatalf("the unspoiled arrays: %v", err)
	}
}
