package hydro

import (
	"fmt"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/neighbor"
	"repro/internal/particles"
)

// BuildFull assembles the paper's full SD resistance matrix
//
//	R = (M^inf)^{-1} + Rlub     (Section II-B)
//
// with M^inf the dense Rotne-Prager-Yamakawa far-field mobility over
// all minimum-image pairs and Rlub the sparse lubrication correction.
// Inverting the dense mobility costs O(n^3); this is the small-system
// formulation (the experiments use the sparse muF*I approximation,
// which this function exists to be compared against).
//
// The returned matrix is dense. It is symmetric positive definite
// when the truncation-free M^inf is (RPY is SPD in free space; the
// minimum-image convention can perturb extreme eigenvalues for very
// small boxes, in which case an error is returned).
func BuildFull(sys *particles.System, opt Options) (*blas.Dense, error) {
	opt = opt.WithDefaults()
	n := 3 * sys.N

	// Dense M^inf from RPY self and pair tensors at minimum-image
	// separations.
	minf := blas.NewDense(n, n)
	for i := 0; i < sys.N; i++ {
		setBlock(minf, i, i, RPYSelf(sys.Radius[i], opt.Viscosity))
	}
	for i := 0; i < sys.N; i++ {
		for j := i + 1; j < sys.N; j++ {
			d := neighbor.MinImage(sys.Pos[j].Sub(sys.Pos[i]), sys.Box)
			r := d.Norm()
			if r == 0 {
				return nil, fmt.Errorf("hydro: coincident particles %d and %d", i, j)
			}
			m := RPYPair(sys.Radius[i], sys.Radius[j], r, opt.Viscosity, d.Scale(1/r))
			setBlock(minf, i, j, m)
			setBlock(minf, j, i, m.Transpose3())
		}
	}

	// Invert via Cholesky: solve M^inf * X = I column by column.
	l, err := blas.Cholesky(minf)
	if err != nil {
		return nil, fmt.Errorf("hydro: far-field mobility not SPD (box too small for minimum-image RPY): %w", err)
	}
	rinf := blas.NewDense(n, n)
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		blas.CholeskySolve(l, col, e)
		for i := 0; i < n; i++ {
			rinf.Set(i, j, col[i])
		}
	}

	// Add the sparse lubrication correction.
	rlub := buildLubOnly(sys, opt)
	for i := 0; i < rlub.NB(); i++ {
		lo, hi := rlub.RowBlocks(i)
		for k := lo; k < hi; k++ {
			j := rlub.BlockCol(k)
			blk := rlub.BlockAt(k)
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					rinf.Add(3*i+r, 3*j+c, blk.At(r, c))
				}
			}
		}
	}
	return rinf, nil
}

// buildLubOnly assembles Rlub alone: the same assembly with a zero
// far-field diagonal.
func buildLubOnly(sys *particles.System, opt Options) *bcrs.Matrix {
	return newAssembler(sys, opt.WithDefaults(), make([]float64, sys.N)).Build(sys.Pos)
}

func setBlock(d *blas.Dense, i, j int, m blas.Mat3) {
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			d.Set(3*i+r, 3*j+c, m.At(r, c))
		}
	}
}
