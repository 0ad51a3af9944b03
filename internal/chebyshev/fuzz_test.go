package chebyshev_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/chebyshev"
	"repro/internal/multivec"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Operator faults FuzzPrecondSqrt plants, by bad % 4.
const (
	fuzzClean    = iota
	fuzzNaN      // one entry NaN
	fuzzInf      // one entry +Inf
	fuzzNegative // one diagonal entry far below zero: an indefinite operator
)

// FuzzPrecondSqrt runs the preconditioned square root on small random
// SPD block matrices through the IC(0) factor of a drifted copy — the
// stale factor of a window's late steps — on m columns at once and on
// each alone, optionally with a NaN, an infinity or a strongly negative
// diagonal entry planted in the operator. It must return, never panic,
// and either give every column within the tolerance of the dense
// oracle, bitwise equal to the column alone, or fail with ErrNotSPD,
// which it must for the planted faults.
func FuzzPrecondSqrt(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(3), 0.2, uint8(fuzzClean))
	f.Add(uint64(2), uint8(9), uint8(1), 0.0, uint8(fuzzClean))
	f.Add(uint64(3), uint8(1), uint8(4), 3.0, uint8(fuzzClean))
	f.Add(uint64(4), uint8(7), uint8(2), 0.5, uint8(fuzzNaN))
	f.Add(uint64(5), uint8(6), uint8(5), 0.1, uint8(fuzzInf))
	f.Add(uint64(6), uint8(8), uint8(3), 0.3, uint8(fuzzNegative))
	f.Fuzz(func(t *testing.T, seed uint64, nb, m uint8, drift float64, bad uint8) {
		const tol = 1e-3
		nbk, mm := 2+int(nb%10), 1+int(m%5)
		if !(math.Abs(drift) <= 10) {
			drift = 0
		}
		a := bcrs.Random(bcrs.RandomOptions{NB: nbk, BlocksPerRow: 3, Seed: seed})
		ic, err := solver.NewIC0(drifted(a, math.Abs(drift), seed))
		if err != nil {
			t.Skip("the drifted copy has no IC(0) factor")
		}
		fault := int(bad % 4)
		op := plant(a, fault, seed)
		z := multivec.New(a.N(), mm)
		rng.New(seed ^ 0x5eed).FillNormal(z.Data)

		y := multivec.New(a.N(), mm)
		st, err := chebyshev.PrecondSqrt(op, ic, y, z, chebyshev.DefaultOrder, tol)
		if err != nil {
			if !errors.Is(err, chebyshev.ErrNotSPD) {
				t.Fatalf("untyped error %v", err)
			}
			if fault == fuzzClean {
				t.Fatalf("an SPD operator failed: %v", err)
			}
			return
		}
		if fault != fuzzClean {
			t.Fatalf("fault %d went unnoticed: %+v", fault, st)
		}
		if st.Iterations > chebyshev.DefaultOrder {
			t.Fatalf("%d multiplies past a cap of %d", st.Iterations, chebyshev.DefaultOrder)
		}
		want := exactPrecondSqrt(t, op, ic, z)
		y1 := make([]float64, a.N())
		for j := 0; j < mm; j++ {
			zc := z.ColVector(j)
			if _, err := chebyshev.PrecondSqrt(op, ic, multivec.FromVector(y1), multivec.FromVector(zc), chebyshev.DefaultOrder, tol); err != nil {
				t.Fatalf("column %d alone: %v", j, err)
			}
			yc := y.ColVector(j)
			for i := range y1 {
				if math.Float64bits(y1[i]) != math.Float64bits(yc[i]) {
					t.Fatalf("column %d row %d: block %v, alone %v", j, i, yc[i], y1[i])
				}
			}
			if st.Unconverged == 0 {
				if e := relErr(yc, want.ColVector(j)); !(e <= tol) {
					t.Fatalf("column %d: relative error %.3g", j, e)
				}
			}
		}
	})
}

// drifted returns a with every diagonal block grown by a random share of
// up to drift of itself: SPD still, and a stand-in for the matrix a
// factor was taken from some steps before a.
func drifted(a *bcrs.Matrix, drift float64, seed uint64) *bcrs.Matrix {
	s := rng.New(seed ^ 0xd1f7)
	return rebuild(a, func(i, j int, blk blas.Mat3) blas.Mat3 {
		if i == j {
			return blk.ScaleM(1 + drift*s.Float64())
		}
		return blk
	})
}

// plant returns a with the fault in one block chosen from seed.
func plant(a *bcrs.Matrix, fault int, seed uint64) *bcrs.Matrix {
	if fault == fuzzClean {
		return a
	}
	row := int(seed % uint64(a.NB()))
	lo, hi := a.RowBlocks(row)
	col := a.BlockCol(lo + int(seed/7%uint64(hi-lo)))
	if fault == fuzzNegative {
		col = row
	}
	return rebuild(a, func(i, j int, blk blas.Mat3) blas.Mat3 {
		if i == row && j == col {
			switch fault {
			case fuzzNaN:
				blk[1] = math.NaN()
			case fuzzInf:
				blk[1] = math.Inf(1)
			case fuzzNegative:
				blk[4] = -1e3 * math.Abs(blk[4])
			}
		}
		return blk
	})
}

// rebuild copies a block by block through edit.
func rebuild(a *bcrs.Matrix, edit func(i, j int, blk blas.Mat3) blas.Mat3) *bcrs.Matrix {
	b := bcrs.NewBuilder(a.NB())
	for i := 0; i < a.NB(); i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			b.AddBlock(i, a.BlockCol(k), edit(i, a.BlockCol(k), a.BlockAt(k)))
		}
	}
	return b.Build()
}
