package perf

import (
	"repro/internal/bcrs"
	"repro/internal/model"
)

// SymPoint is one row of a symmetric-vs-general calibration sweep.
type SymPoint struct {
	M              int
	Speedup        float64 // measured general seconds / symmetric seconds, paired
	PredictedSpeed float64 // model SymSpeedup(m) under the calibrated machine
	RGeneral       float64 // measured r(m), paired with the general T(1)
	RSym           float64 // measured r_sym(m), paired with the general T(1)
	PredictedRSym  float64 // model RelativeTimeSym(m)
}

// KMissFactor converts blocks-per-row into the capacity model's
// miss-regime k ceiling: kmiss = kbase + KMissFactor*(bpr-1). At full
// miss every off-diagonal block of a row re-gathers its X block
// column, charging ~(bpr-1) extra accesses per element; the factor
// above 1 absorbs the latency amplification of a single-threaded miss
// stream (no MLP to hide it), calibrated against measured r(m) sweeps
// on the bench host.
const KMissFactor = 3.0

// symL2Bytes is the per-core cache capacity the capacity model
// measures the kernels' row window against. The scatter makes the
// symmetric working set L2-scale, not L3-scale: the X gathers and Y
// read-modify-writes revisit a span-wide row window per block row,
// and on shared-L3 hosts it is the private L2 that determines whether
// those revisits hit.
const symL2Bytes = 2 << 20

// SymGSPMV assembles the capacity-aware kernel model for a matrix and
// its half storage: k(m) ramps from the resident kbase toward the
// miss ceiling as the kernel's X/Y row window — span block rows wide,
// twice that for the symmetric kernel, whose transposed scatter
// read-modify-writes Y across the same window — overflows
// symL2Bytes. This is what replaces the flat ConstK predictions,
// whose predicted_speed saturated at 1 past the compute switch point
// while measurements kept moving.
func SymGSPMV(a *bcrs.Matrix, s *bcrs.SymMatrix, mc model.Machine, k float64) model.GSPMV {
	winGen := int64(s.Span()) * bcrs.BlockDim * 8
	kmiss := k + KMissFactor*(float64(a.NNZB())/float64(a.NB())-1)
	return model.GSPMV{
		Machine: mc,
		Shape:   model.Shape{NB: a.NB(), NNZB: a.NNZB()},
		K:       model.CapacityK(k, kmiss, winGen, symL2Bytes),
		KSym:    model.CapacityK(k, 2*kmiss, 2*winGen, symL2Bytes),
	}
}

// MeasureSymSpeedups runs the calibration sweep the Section-IV
// extension needs: for each m it times the general and symmetric
// multiply on the same matrix at the current thread settings and
// pairs the measured speedup and relative times with the predictions
// of the supplied model (typically SymGSPMV over EffectiveMachine
// output). Every measured column is a median of relativePairs
// back-to-back pairs (TimePaired): the speedup pairs general with
// symmetric at the same m, and both relative times pair their multiply
// with the GENERAL m = 1 one, so measured and predicted columns are
// directly comparable. r(1) is 1 by definition and is not measured.
func MeasureSymSpeedups(a *bcrs.Matrix, s *bcrs.SymMatrix, g model.GSPMV, ms []int) []SymPoint {
	y1, x1 := operands(a, 1)
	general1 := func() { a.Mul(y1, x1) }
	out := make([]SymPoint, 0, len(ms))
	for _, m := range ms {
		gy, gx := operands(a, m)
		sy, sx := operands(s, m)
		general := func() { a.Mul(gy, gx) }
		sym := func() { s.Mul(sy, sx) }
		speedup, _ := TimePaired(relativePairs, general, sym)
		rGeneral := 1.0
		if m > 1 {
			rGeneral, _ = TimePaired(relativePairs, general, general1)
		}
		rSym, _ := TimePaired(relativePairs, sym, general1)
		out = append(out, SymPoint{
			M:              m,
			Speedup:        speedup,
			PredictedSpeed: g.SymSpeedup(m),
			RGeneral:       rGeneral,
			RSym:           rSym,
			PredictedRSym:  g.RelativeTimeSym(m),
		})
	}
	return out
}
