package solver

import (
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/multivec"
)

// testEnsemble builds k distinct SPD matrices of the same dimension.
func testEnsemble(k int) []*bcrs.Matrix {
	mats := make([]*bcrs.Matrix, k)
	for i := range mats {
		mats[i] = bcrs.Random(bcrs.RandomOptions{NB: 80, BlocksPerRow: 5, Seed: uint64(40 + i)})
	}
	return mats
}

// TestMultiCGEnsembleBitwiseMatchesLoneCG is the ensemble half of the
// fused-solve guarantee: MultiCG over a solver.Ensemble of K distinct
// matrices must produce, for every member, exactly the iterate
// sequence of a lone CG against that member's matrix — including
// after early columns converge and the survivors are repacked.
func TestMultiCGEnsembleBitwiseMatchesLoneCG(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8, 17, 33} {
		mats := testEnsemble(k)
		ops := make([]Operator, k)
		for i, m := range mats {
			ops[i] = m
		}
		ens := NewEnsemble(ops)
		n := ens.N()

		xs := make([][]float64, k)
		bs := make([][]float64, k)
		opts := make([]Options, k)
		for j := 0; j < k; j++ {
			xs[j] = make([]float64, n)
			bs[j] = testRHS(n, uint64(700+j))
			// Spread the tolerances so members retire at different
			// iterations and the repack path is exercised.
			opts[j] = Options{Tol: 1e-6 / float64(j+1)}
		}
		stats := MultiCG(ens, xs, bs, opts)

		for j := 0; j < k; j++ {
			ref := make([]float64, n)
			rst := CG(mats[j], ref, testRHS(n, uint64(700+j)), opts[j])
			if !stats[j].Converged || !rst.Converged {
				t.Fatalf("k=%d member=%d: converged fused=%v alone=%v",
					k, j, stats[j].Converged, rst.Converged)
			}
			if stats[j].Iterations != rst.Iterations {
				t.Errorf("k=%d member=%d: iterations fused=%d alone=%d",
					k, j, stats[j].Iterations, rst.Iterations)
			}
			if stats[j].Residual != rst.Residual {
				t.Errorf("k=%d member=%d: residual fused=%v alone=%v",
					k, j, stats[j].Residual, rst.Residual)
			}
			for i := range ref {
				if xs[j][i] != ref[i] {
					t.Fatalf("k=%d member=%d: x[%d]=%v fused vs %v alone: not bitwise",
						k, j, i, xs[j][i], ref[i])
				}
			}
		}
	}
}

// TestEnsembleMulColsZeroesPadding: output columns beyond the id list
// must come back zero even when the output block holds stale values.
func TestEnsembleMulColsZeroesPadding(t *testing.T) {
	mats := testEnsemble(2)
	ens := NewEnsemble([]Operator{mats[0], mats[1]})
	n := ens.N()

	x := multivec.New(n, 4)
	y := multivec.New(n, 4)
	for i := range y.Data {
		y.Data[i] = math.NaN() // stale scratch
	}
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		x.Set(i, 1, 2)
	}
	ens.MulCols(y, x, []int{0, 1})
	for i := 0; i < n; i++ {
		if y.At(i, 2) != 0 || y.At(i, 3) != 0 {
			t.Fatalf("padding column not zeroed at row %d: %v %v", i, y.At(i, 2), y.At(i, 3))
		}
	}
}

// TestNewEnsembleRejectsMismatch: member dimensions must agree.
func TestNewEnsembleRejectsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ensemble dimensions did not panic")
		}
	}()
	a := bcrs.Random(bcrs.RandomOptions{NB: 10, BlocksPerRow: 3, Seed: 1})
	b := bcrs.Random(bcrs.RandomOptions{NB: 12, BlocksPerRow: 3, Seed: 2})
	NewEnsemble([]Operator{a, b})
}
