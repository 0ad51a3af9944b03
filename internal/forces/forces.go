// Package forces provides deterministic inter-particle force fields
// (the f^P term of the Langevin equation). The paper's experiments
// use f^P = 0, but Section II-A names the extension this package
// serves: "other forces can be incorporated, such as bonded forces
// for simulating long-chain molecules as a bonded chain of
// particles".
package forces

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/neighbor"
	"repro/internal/particles"
)

// Bond is a harmonic spring between particles I and J with rest
// length R0 and stiffness K: energy K/2 (r - R0)^2 along the
// minimum-image separation.
type Bond struct {
	I, J int
	R0   float64
	K    float64
}

// Harmonic is a collection of bonds forming chains or networks.
type Harmonic struct {
	Bonds []Bond
}

// Chain builds the bonds of a linear chain over the particle indices
// ids, with uniform rest length and stiffness.
func Chain(ids []int, r0, k float64) *Harmonic {
	h := &Harmonic{}
	for i := 0; i+1 < len(ids); i++ {
		h.Bonds = append(h.Bonds, Bond{I: ids[i], J: ids[i+1], R0: r0, K: k})
	}
	return h
}

// Force returns the packed 3N force vector of the field at the given
// configuration. Forces are pairwise equal and opposite, so the net
// force is zero.
func (h *Harmonic) Force(sys *particles.System) []float64 {
	f := make([]float64, 3*sys.N)
	for _, b := range h.Bonds {
		if b.I < 0 || b.I >= sys.N || b.J < 0 || b.J >= sys.N || b.I == b.J {
			panic(fmt.Sprintf("forces: invalid bond %+v for %d particles", b, sys.N))
		}
		d := neighbor.MinImage(sys.Pos[b.J].Sub(sys.Pos[b.I]), sys.Box)
		r := d.Norm()
		if r == 0 {
			continue // coincident: no defined direction, no force
		}
		// Force on I points toward J when stretched (r > R0).
		mag := b.K * (r - b.R0)
		dir := d.Scale(mag / r)
		f[3*b.I] += dir[0]
		f[3*b.I+1] += dir[1]
		f[3*b.I+2] += dir[2]
		f[3*b.J] -= dir[0]
		f[3*b.J+1] -= dir[1]
		f[3*b.J+2] -= dir[2]
	}
	return f
}

// Energy returns the total potential energy of the field.
func (h *Harmonic) Energy(sys *particles.System) float64 {
	var e float64
	for _, b := range h.Bonds {
		d := neighbor.MinImage(sys.Pos[b.J].Sub(sys.Pos[b.I]), sys.Box)
		dr := d.Norm() - b.R0
		e += 0.5 * b.K * dr * dr
	}
	return e
}

// EndToEnd returns the minimum-image end-to-end vector of the chain
// through the given particle index sequence.
func EndToEnd(sys *particles.System, ids []int) blas.Vec3 {
	var total blas.Vec3
	for i := 0; i+1 < len(ids); i++ {
		seg := neighbor.MinImage(sys.Pos[ids[i+1]].Sub(sys.Pos[ids[i]]), sys.Box)
		total = total.Add(seg)
	}
	return total
}
