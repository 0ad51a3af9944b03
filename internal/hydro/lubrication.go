// Package hydro builds the hydrodynamic resistance matrices of
// Stokesian dynamics.
//
// Following the paper (Section II-B), the full SD resistance
// R = (M^inf)^-1 + Rlub is replaced by the sparse approximation of
// Torres & Gilbert,
//
//	R = muF*I + Rlub,
//
// valid when lubrication dominates: the dense far-field term is
// collapsed into a "far-field effective viscosity" muF that depends on
// the volume fraction, with a per-particle radius scaling (the paper's
// "slight modification ... to account for different particle radii").
//
// Rlub superimposes two-sphere analytical lubrication solutions: for
// each close pair the translational resistance tensor
//
//	A = 6*pi*mu*a_avg * [ XA(xi, beta) d d^T + YA(xi, beta) (I - d d^T) ]
//
// with xi the dimensionless surface gap and beta the radius ratio. XA
// (squeeze mode, ~1/xi) and YA (shear mode, ~log 1/xi) use the
// leading-order near-field resistance functions of Jeffrey & Onishi
// (1984) as tabulated in Kim & Karrila. Each pair contributes the
// 2x2-block pattern [+A -A; -A +A], which resists only *relative*
// motion — the projection of collective pair motion the paper adopts
// from Cichocki et al. — and makes Rlub symmetric positive
// semidefinite by construction (it is a sum of PSD pair terms).
//
// Assembly has one path, Assembler (Build is a one-shot use of it). A
// pair contributes when its gap xi, evaluated by neighbor.Gap, is
// below Options.CutoffXi; the Verlet list's candidates lie within each
// pair's own reach (a_i+a_j)(1+CutoffXi/2) plus a skin. One pass over
// the sorted candidates computes each one's displacement, distance and
// gap once and, for a kept pair, the six distinct entries of its
// tensor; one pass over the kept pairs writes -A into both mirrored
// blocks and sums the diagonals, straight into BCRS arrays: columns
// ascending, each diagonal muF_i*I first, then the row's pair tensors in
// ascending neighbor index (every pair (j, i), j < i, precedes every
// pair (i, k)). The matrix is therefore a pure function of (positions,
// radii, options): bitwise the same from a long-lived assembler or a
// fresh one, at any thread count, and bitwise what a bcrs.Builder fed
// the far-field diagonal and then the (I, J)-sorted pairs would produce.
//
// A warmed Build pays for what moved: the constants of a pair (XA's and
// YA's coefficients, their cutoff values, the scale) are kept per
// candidate slot of the Verlet list, so a build takes one logarithm per
// pair in PairTensor's expressions and order — PairTensor, XA and YA
// are the reference the cache is tested against, bit for bit. A
// returned matrix owns its arrays until its holder hands it to Recycle.
package hydro

import "math"

// XA returns the squeeze-mode (along the line of centers) near-field
// resistance function for two spheres with dimensionless gap xi =
// 2h/(a1+a2) (h the surface separation) and radius ratio beta =
// a2/a1, normalized so the pair force is 6*pi*mu*a1*XA*du. The
// leading-order Jeffrey-Onishi form is
//
//	XA = g1/xi + g2*log(1/xi) + g3*xi*log(1/xi)
//
// with
//
//	g1 = 2*beta^2 / (1+beta)^3
//	g2 = beta*(1 + 7*beta + beta^2) / (5*(1+beta)^3)
//	g3 = (1 + 18*beta - 29*beta^2 + 18*beta^3 + beta^4) / (42*(1+beta)^3)
func XA(xi, beta float64) float64 {
	if xi <= 0 {
		panic("hydro: XA requires xi > 0")
	}
	g1, g2, g3 := xaCoef(beta)
	l := math.Log(1 / xi)
	return g1/xi + g2*l + g3*xi*l
}

func xaCoef(beta float64) (g1, g2, g3 float64) {
	b3 := cube(1 + beta)
	return 2 * beta * beta / b3, beta * (1 + 7*beta + beta*beta) / (5 * b3),
		(1 + 18*beta - 29*beta*beta + 18*beta*beta*beta + beta*beta*beta*beta) / (42 * b3)
}

// YA returns the shear-mode (transverse) near-field resistance
// function, same normalization and arguments as XA:
//
//	YA = g2y*log(1/xi) + g3y*xi*log(1/xi)
//
// with
//
//	g2y = 4*beta*(2 + beta + 2*beta^2) / (15*(1+beta)^3)
//	g3y = 2*(16 - 45*beta + 58*beta^2 - 45*beta^3 + 16*beta^4) / (375*(1+beta)^3)
func YA(xi, beta float64) float64 {
	if xi <= 0 {
		panic("hydro: YA requires xi > 0")
	}
	g2, g3 := yaCoef(beta)
	l := math.Log(1 / xi)
	return g2*l + g3*xi*l
}

func yaCoef(beta float64) (g2, g3 float64) {
	b3 := cube(1 + beta)
	return 4 * beta * (2 + beta + 2*beta*beta) / (15 * b3),
		2 * (16 - 45*beta + 58*beta*beta - 45*beta*beta*beta + 16*beta*beta*beta*beta) / (375 * b3)
}

func cube(x float64) float64 { return x * x * x }

// EffectiveViscosity returns the relative far-field viscosity
// eta_r(phi) used to set muF. The exact formula of Torres & Gilbert's
// technical report is not publicly available; this Batchelor form,
//
//	eta_r = 1 + 2.5*phi + 6.2*phi^2,
//
// reduces to the Einstein dilute limit for small phi and grows gently
// with crowding. The gentle growth matters for reproducing the
// paper's conditioning trend (Table V): the ill-conditioning of R at
// high occupancy comes from the diverging lubrication terms, and a
// strongly divergent eta_r (e.g. Krieger-Dougherty) would mask it by
// inflating the diagonal (see DESIGN.md, substitutions).
func EffectiveViscosity(phi float64) float64 {
	if phi < 0 || phi >= 0.64 {
		panic("hydro: EffectiveViscosity requires phi in [0, 0.64)")
	}
	return 1 + 2.5*phi + 6.2*phi*phi
}
