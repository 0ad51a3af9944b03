//go:build amd64

package solver

// Implemented in ic0_amd64.s: the sweeps of IC0.Apply on one vector and
// of IC0.ApplyBlock on the leading mc columns of an m-column block,
// lane for lane the loops of ic0.go.
func ic0ForwardAVX2(rowPtr, colIdx *int32, lower, inv, z, r *float64, nb int)
func ic0BackwardAVX2(rowPtr, colIdx *int32, lower, inv, z *float64, nb int)
func ic0BlockForwardAVX2(rowPtr, colIdx *int32, lower, inv, z, r *float64, nb, m, mc int)
func ic0BlockBackwardAVX2(rowPtr, colIdx *int32, lower, inv, z *float64, nb, m, mc int)

// sweepSIMD runs both substitutions on columns [0, mc) of the m-column z
// and r in assembly (m == mc == 1 is Apply), given a strict-lower block.
func (ic *IC0) sweepSIMD(z, r []float64, m, mc int) {
	rp, ci, lo, inv := &ic.rowPtr[0], &ic.colIdx[0], &ic.lower[0], &ic.invDiag[0]
	if m == 1 {
		ic0ForwardAVX2(rp, ci, lo, inv, &z[0], &r[0], ic.nb)
		ic0BackwardAVX2(rp, ci, lo, inv, &z[0], ic.nb)
		return
	}
	ic0BlockForwardAVX2(rp, ci, lo, inv, &z[0], &r[0], ic.nb, m, mc)
	ic0BlockBackwardAVX2(rp, ci, lo, inv, &z[0], ic.nb, m, mc)
}
