//go:build amd64

package solver

import (
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/multivec"
)

// checkSweeps runs each assembly sweep alone against its half of the
// reference: forward from r must give fwd, backward from fwd must give
// final.
func checkSweeps(t *testing.T, name string, ic *IC0, r, fwd, final []float64) {
	t.Helper()
	if !cpufeat.AVX2 || len(ic.colIdx) == 0 {
		return
	}
	z := make([]float64, len(r))
	rp, ci, lo, inv := &ic.rowPtr[0], &ic.colIdx[0], &ic.lower[0], &ic.invDiag[0]
	ic0ForwardAVX2(rp, ci, lo, inv, &z[0], &r[0], ic.nb)
	if i := firstDiff(z, fwd); i >= 0 {
		t.Fatalf("%s: forward sweep y[%d] = %v, want %v", name, i, z[i], fwd[i])
	}
	ic0BackwardAVX2(rp, ci, lo, inv, &z[0], ic.nb)
	if i := firstDiff(z, final); i >= 0 {
		t.Fatalf("%s: backward sweep x[%d] = %v, want %v", name, i, z[i], final[i])
	}
}

// TestIC0AVX2BlockSweepsMatchLoops: on a host with AVX-512 the default
// path never reaches the AVX2 block sweeps, so with cpufeat.AVX512
// cleared ApplyBlock must still give the Go loops' bits at every width
// from 1 to 33 (the AVX2 sweeps' groups of 8 and 4 and the loops' m%4
// tail).
func TestIC0AVX2BlockSweepsMatchLoops(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2")
	}
	defer func(saved bool) { cpufeat.AVX512 = saved }(cpufeat.AVX512)
	a := spdMatrix(57, 70, 7)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	for m := 1; m <= 33; m++ {
		r := multivec.New(n, m)
		copy(r.Data, randVec(int64(58+m), n*m))
		want, z := multivec.New(n, m), multivec.New(n, m)
		withSIMD(false, func() { ic.ApplyBlock(want, r) })
		cpufeat.AVX512 = false
		ic.ApplyBlock(z, r)
		if i := firstDiff(z.Data, want.Data); i >= 0 {
			t.Fatalf("m=%d: AVX2 z[%d] = %v, loops %v", m, i, z.Data[i], want.Data[i])
		}
	}
}
