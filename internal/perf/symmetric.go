package perf

import (
	"time"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/multivec"
	"repro/internal/rng"
)

// BlockMultiplier is the measurable multiply surface shared by the
// general and symmetric BCRS matrices.
type BlockMultiplier interface {
	N() int
	Mul(y, x *multivec.MultiVec)
}

// TimeMultiplyOp is TimeMultiply over any block multiplier: the wall
// time in seconds of one Y = A*X with m vectors, minimum over enough
// repetitions to accumulate ~20 ms of work (or reps if reps > 0).
func TimeMultiplyOp(a BlockMultiplier, m, reps int) float64 {
	x := multivec.New(a.N(), m)
	rng.New(7).FillNormal(x.Data)
	y := multivec.New(a.N(), m)
	a.Mul(y, x) // warm-up
	if reps > 0 {
		best := 1e300
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			a.Mul(y, x)
			if s := time.Since(t0).Seconds(); s < best {
				best = s
			}
		}
		sink += y.Data[0]
		return best
	}
	const target = 20 * time.Millisecond
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			a.Mul(y, x)
		}
		d := time.Since(t0)
		if d >= target {
			sink += y.Data[0]
			return d.Seconds() / float64(batch)
		}
		if d <= 0 {
			batch *= 8
			continue
		}
		grow := int(float64(target)/float64(d)) + 1
		if grow < 2 {
			grow = 2
		}
		batch *= grow
	}
}

// MeasureRatesSym times one half-storage multiply with m vectors and
// converts to the Table II quantities, charging traffic with the
// symmetric model's Mtr_sym(m) at the given k.
func MeasureRatesSym(s *bcrs.SymMatrix, m int, k float64) Rates {
	secs := TimeMultiplyOp(s, m, 0)
	g := model.GSPMV{
		Shape: model.Shape{NB: s.NB(), NNZB: 2*s.NNZB() - s.NB()},
		K:     model.ConstK(k),
	}
	return Rates{
		GBps:   g.SymTrafficBytes(m) / secs / 1e9,
		Gflops: float64(s.FlopCount(m)) / secs / 1e9,
		Secs:   secs,
	}
}

// SymPoint is one row of a symmetric-vs-general calibration sweep.
type SymPoint struct {
	M              int     `json:"m"`
	GeneralSecs    float64 `json:"general_secs"`    // measured general multiply seconds
	SymSecs        float64 `json:"sym_secs"`        // measured symmetric multiply seconds
	Speedup        float64 `json:"speedup"`         // GeneralSecs / SymSecs
	PredictedSpeed float64 `json:"predicted_speed"` // model SymSpeedup(m) under the calibrated machine
	RGeneral       float64 `json:"r_general"`       // measured r(m), general baseline T(1)
	RSym           float64 `json:"r_sym"`           // measured r_sym(m), same general baseline
	PredictedRSym  float64 `json:"predicted_r_sym"` // model RelativeTimeSym(m)
	PredictedRGen  float64 `json:"predicted_r_gen"` // model RelativeTime(m)
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
// extension needs: for each m it measures the general and symmetric
// multiply on the same matrix at the current thread settings and
// pairs the measured speedup and relative times with the predictions
// of the supplied model (typically SymGSPMV over EffectiveMachine
// output). Both relative-time columns share the measured GENERAL m=1
// baseline, so measured and predicted columns are directly
// comparable.
func MeasureSymSpeedups(a *bcrs.Matrix, s *bcrs.SymMatrix, g model.GSPMV, ms []int) []SymPoint {
	t1 := timeMultiplyStable(a, 1)
	out := make([]SymPoint, 0, len(ms))
	for _, m := range ms {
		gt := timeMultiplyOpStable(a, m)
		st := timeMultiplyOpStable(s, m)
		out = append(out, SymPoint{
			M:              m,
			GeneralSecs:    gt,
			SymSecs:        st,
			Speedup:        gt / st,
			PredictedSpeed: g.SymSpeedup(m),
			RGeneral:       gt / t1,
			RSym:           st / t1,
			PredictedRSym:  g.RelativeTimeSym(m),
			PredictedRGen:  g.RelativeTime(m),
		})
	}
	return out
}

// timeMultiplyOpStable is TimeMultiplyOp repeated three times, keeping
// the minimum.
func timeMultiplyOpStable(a BlockMultiplier, m int) float64 {
	best := TimeMultiplyOp(a, m, 0)
	for i := 0; i < 2; i++ {
		if t := TimeMultiplyOp(a, m, 0); t < best {
			best = t
		}
	}
	return best
}
