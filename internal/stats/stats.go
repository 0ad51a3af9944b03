// Package stats computes the physical observables Stokesian dynamics
// is run to obtain (Section II-A: "Of scientific and engineering
// interest are the macroscopic properties of the particle motion,
// such as average diffusion constants"): mean-squared displacement
// and diffusion coefficients.
//
// Displacement tracking is unwrapped: the periodic box wraps
// positions, so observables must accumulate true displacements from
// the integrator's velocities (via core.Runner's OnStep hook), not
// differences of wrapped coordinates.
package stats

import (
	"math"

	"repro/internal/obs"
)

// msdDropped counts velocity samples discarded by MSD.Observe because
// their length did not match the tracked particle count.
var msdDropped = obs.Default.Counter("stats_msd_length_mismatch_total")

// MSD accumulates unwrapped per-particle displacements and the
// resulting mean-squared displacement curve.
type MSD struct {
	n    int
	dt   float64
	disp []float64 // 3n accumulated displacement
	// Curve[k] is the MSD after k+1 steps.
	Curve []float64
	// Dropped counts observations discarded because the velocity
	// slice length did not match the tracked particle count.
	Dropped int
}

// NewMSD tracks n particles stepped with time step dt.
func NewMSD(n int, dt float64) *MSD {
	return &MSD{n: n, dt: dt, disp: make([]float64, 3*n)}
}

// Observe is shaped for core.Runner's OnStep hook. A velocity slice
// of the wrong length is dropped (counted in Dropped and the
// stats_msd_length_mismatch_total metric) rather than panicking: an
// observer wired to the wrong system size should not take down a
// long simulation mid-run.
func (m *MSD) Observe(step int, u []float64, dt float64) {
	if len(u) != len(m.disp) {
		m.Dropped++
		msdDropped.Inc()
		return
	}
	for i := range m.disp {
		m.disp[i] += dt * u[i]
	}
	var sum float64
	for i := 0; i < m.n; i++ {
		dx, dy, dz := m.disp[3*i], m.disp[3*i+1], m.disp[3*i+2]
		sum += dx*dx + dy*dy + dz*dz
	}
	m.Curve = append(m.Curve, sum/float64(m.n))
}

// DiffusionCoefficient returns D from the Einstein relation
// MSD = 6 D t, least-squares fitted through the origin over the
// accumulated curve. It returns 0 before any steps are observed.
func (m *MSD) DiffusionCoefficient() float64 {
	if len(m.Curve) == 0 {
		return 0
	}
	// Fit MSD_k = 6 D (k+1) dt: D = sum(t_k y_k) / (6 sum t_k^2).
	var num, den float64
	for k, y := range m.Curve {
		t := float64(k+1) * m.dt
		num += t * y
		den += t * t
	}
	return num / (6 * den)
}

// Divergence summarizes how far apart a set of equal-length vectors
// sit: the mean and maximum pairwise root-mean-square distance. The
// serve tier's /v1/ensemble reports it over the member solutions as a
// quick spread indicator. Fewer than two vectors yield zeros.
func Divergence(vs [][]float64) (mean, max float64) {
	if len(vs) < 2 {
		return 0, 0
	}
	pairs := 0
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			var sum float64
			for k := range vs[i] {
				d := vs[i][k] - vs[j][k]
				sum += d * d
			}
			d := math.Sqrt(sum / float64(len(vs[i])))
			mean += d
			if d > max {
				max = d
			}
			pairs++
		}
	}
	return mean / float64(pairs), max
}
