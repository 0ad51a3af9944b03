package hydro

import (
	"math"

	"repro/internal/blas"
)

// RPYSelf returns the self-mobility block of a sphere of radius a:
// I/(6*pi*mu*a).
func RPYSelf(a, mu float64) blas.Mat3 {
	return blas.Ident3().ScaleM(1 / (6 * math.Pi * mu * a))
}

// RPYPair returns the Rotne-Prager-Yamakawa cross-mobility tensor for
// two non-overlapping spheres of radii a1, a2 whose centers are
// separated by r along the unit direction d:
//
//	M = 1/(8*pi*mu*r) * [ (1 + (a1^2+a2^2)/(3 r^2)) I
//	                    + (1 - (a1^2+a2^2)/r^2) d d^T ]
//
// This is the long-range 1/r hydrodynamic interaction of the paper's
// M^inf (Section II-B); the full SD method inverts a mobility matrix
// built from these blocks, while the sparse approximation this
// repository uses for the experiments replaces that term with muF*I.
// BuildFull, the oracle the sparse approximation is compared against,
// builds M^inf from these blocks.
func RPYPair(a1, a2, r, mu float64, d blas.Vec3) blas.Mat3 {
	if r < a1+a2 {
		// Overlapping RPY correction (equal-sphere form applied to
		// the mean radius): keeps the tensor positive definite.
		a := (a1 + a2) / 2
		if r < 1e-12 {
			return RPYSelf(a, mu)
		}
		c1 := 1 / (6 * math.Pi * mu * a) * (1 - 9*r/(32*a))
		c2 := 1 / (6 * math.Pi * mu * a) * 3 * r / (32 * a)
		return blas.AxialTensor(c1+2*c2, c1+c2/2, d) // smooth interpolation
	}
	aa := a1*a1 + a2*a2
	pre := 1 / (8 * math.Pi * mu * r)
	ci := pre * (1 + aa/(3*r*r))
	cd := pre * (1 - aa/(r*r))
	return blas.AxialTensor(ci+cd, ci, d)
}
