// Package stats computes the physical observables Stokesian dynamics
// is run to obtain (Section II-A: "Of scientific and engineering
// interest are the macroscopic properties of the particle motion,
// such as average diffusion constants"): mean-squared displacement
// and diffusion coefficients, radial distribution functions, and
// velocity autocorrelations.
//
// Displacement tracking is unwrapped: the periodic box wraps
// positions, so observables must accumulate true displacements from
// the integrator's velocities (via core.Runner's OnStep hook), not
// differences of wrapped coordinates.
package stats

import (
	"math"

	"repro/internal/blas"
	"repro/internal/neighbor"
	"repro/internal/obs"
	"repro/internal/particles"
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

// Steps returns the number of observed steps.
func (m *MSD) Steps() int { return len(m.Curve) }

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

// RDF computes the radial distribution function g(r) of a particle
// configuration: the ratio of observed pair density at separation r
// to that of an ideal gas at the same number density.
type RDF struct {
	// R[i] is the center of bin i; G[i] the g(r) value.
	R, G []float64
}

// ComputeRDF histograms pair separations into bins of width dr up to
// rmax (clamped to half the box, beyond which minimum-image
// separations are ambiguous).
func ComputeRDF(sys *particles.System, dr, rmax float64) *RDF {
	if dr <= 0 {
		panic("stats: RDF requires dr > 0")
	}
	if rmax > sys.Box/2 {
		rmax = sys.Box / 2
	}
	nbins := int(rmax / dr)
	if nbins < 1 {
		panic("stats: RDF range shorter than one bin")
	}
	counts := make([]float64, nbins)
	neighbor.ForEachPair(sys.Pos, sys.Box, rmax, func(p neighbor.Pair) {
		b := int(p.R / dr)
		if b < nbins {
			counts[b] += 2 // each pair contributes to both particles
		}
	})
	vol := sys.Box * sys.Box * sys.Box
	density := float64(sys.N) / vol
	out := &RDF{R: make([]float64, nbins), G: make([]float64, nbins)}
	for i := 0; i < nbins; i++ {
		rlo := float64(i) * dr
		rhi := rlo + dr
		shell := 4.0 / 3.0 * math.Pi * (rhi*rhi*rhi - rlo*rlo*rlo)
		ideal := density * shell * float64(sys.N)
		out.R[i] = rlo + dr/2
		if ideal > 0 {
			out.G[i] = counts[i] / ideal
		}
	}
	return out
}

// ContactPeak returns the height and position of the maximum of g(r)
// — for dense suspensions this sits near particle contact.
func (r *RDF) ContactPeak() (pos, height float64) {
	for i, g := range r.G {
		if g > height {
			height = g
			pos = r.R[i]
		}
	}
	return pos, height
}

// VACF accumulates the velocity autocorrelation function
// C(k) = <v(t) . v(t+k)> / <v . v> from the step velocities, using
// the first observed step as the reference.
type VACF struct {
	ref   []float64
	ref2  float64
	Curve []float64
}

// NewVACF tracks 3n velocity components.
func NewVACF() *VACF { return &VACF{} }

// Observe is shaped for core.Runner's OnStep hook.
func (v *VACF) Observe(step int, u []float64, dt float64) {
	if v.ref == nil {
		v.ref = append([]float64(nil), u...)
		v.ref2 = blas.Dot(v.ref, v.ref)
	}
	if v.ref2 == 0 {
		v.Curve = append(v.Curve, 0)
		return
	}
	v.Curve = append(v.Curve, blas.Dot(v.ref, u)/v.ref2)
}

// Multi composes several OnStep observers into one.
func Multi(obs ...func(step int, u []float64, dt float64)) func(step int, u []float64, dt float64) {
	return func(step int, u []float64, dt float64) {
		for _, o := range obs {
			o(step, u, dt)
		}
	}
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
