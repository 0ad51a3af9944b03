//go:build amd64

package solver

import (
	"testing"

	"repro/internal/cpufeat"
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
