//go:build amd64

package hydro

import (
	"math"
	"testing"

	"repro/internal/cpufeat"
)

// FuzzLogLanesMatchArchLog runs the kernel's logarithm and its domain
// guard over every float64 class — ±0, subnormals, normals, ±Inf, NaN,
// negatives — four lanes at once, the fuzzed value, its neighbours and
// its negation: the guard passes exactly the positive normal numbers,
// and on every lane it passes the kernel returns math.Log's bits. The
// seeds run under go test.
func FuzzLogLanesMatchArchLog(f *testing.F) {
	if !cpufeat.AVX2 {
		f.Skip("no AVX2: the kernel does not run")
	}
	for _, v := range []uint64{
		0, 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x0010000000000001,
		0x3FE6A09E667F3BCC, 0x3FE6A09E667F3BCD, 0x3FE6A09E667F3BCE, 0x3FF0000000000000,
		0x3FEFFFFFFFFFFFFF, 0x3FF0000000000001, 0x4000000000000000, 0x7FEFFFFFFFFFFFFF,
		0x7FF0000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0x41E6A09E667F3BCD,
		0x8000000000000000, 0xBFF0000000000000, 0xFFF0000000000000,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		in := [4]float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)), -x}
		var out [4]float64
		ok := logLanesAVX2(&in, &out)
		for l, v := range in {
			normal := v > 0 && v >= 0x1p-1022 && !math.IsInf(v, 1)
			if guard := ok>>l&1 == 1; guard != normal {
				t.Fatalf("lane %d, x %x: guard %v, positive normal %v", l, math.Float64bits(v), guard, normal)
			}
			if want := math.Log(v); normal && math.Float64bits(out[l]) != math.Float64bits(want) {
				t.Fatalf("lane %d: log(%x) = %x, math.Log %x", l, math.Float64bits(v), math.Float64bits(out[l]), math.Float64bits(want))
			}
		}
	})
}
