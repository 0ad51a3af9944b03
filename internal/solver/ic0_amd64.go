//go:build amd64

package solver

import "repro/internal/cpufeat"

// Implemented in ic0_amd64.s: the sweeps of IC0.ApplyBlock on one
// vector and on the leading w columns of an m-column block (the AVX2
// ones take a positive multiple of 4, the AVX-512 ones any w >= 1),
// lane for lane the loops of ic0.go.
func ic0ForwardAVX2(rowPtr, colIdx *int32, lower, inv, z, r *float64, nb int)
func ic0BackwardAVX2(rowPtr, colIdx *int32, lower, inv, z *float64, nb int)
func ic0BlockForwardAVX2(rowPtr, colIdx *int32, lower, inv, z, r *float64, nb, m, w int)
func ic0BlockBackwardAVX2(rowPtr, colIdx *int32, lower, inv, z *float64, nb, m, w int)
func ic0BlockForwardAVX512(rowPtr, colIdx *int32, lower, inv, z, r *float64, nb, m, w int)
func ic0BlockBackwardAVX512(rowPtr, colIdx *int32, lower, inv, z *float64, nb, m, w int)

// sweepSIMD runs both substitutions in assembly on the leading columns
// of the m-column z and r, given a strict-lower block, and returns how
// many it ran: every column for one vector and, where cpufeat.AVX512
// (read here, so clearing it forces the AVX2 sweeps), at any width;
// else the leading multiple of 4, which may be none.
func (ic *IC0) sweepSIMD(z, r []float64, m int) int {
	rp, ci, lo, inv := &ic.rowPtr[0], &ic.colIdx[0], &ic.lower[0], &ic.invDiag[0]
	switch {
	case m == 1:
		ic0ForwardAVX2(rp, ci, lo, inv, &z[0], &r[0], ic.nb)
		ic0BackwardAVX2(rp, ci, lo, inv, &z[0], ic.nb)
		return 1
	case cpufeat.AVX512:
		ic0BlockForwardAVX512(rp, ci, lo, inv, &z[0], &r[0], ic.nb, m, m)
		ic0BlockBackwardAVX512(rp, ci, lo, inv, &z[0], ic.nb, m, m)
		return m
	}
	w := m &^ 3
	if w > 0 {
		ic0BlockForwardAVX2(rp, ci, lo, inv, &z[0], &r[0], ic.nb, m, w)
		ic0BlockBackwardAVX2(rp, ci, lo, inv, &z[0], ic.nb, m, w)
	}
	return w
}
