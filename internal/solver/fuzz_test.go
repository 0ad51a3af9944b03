package solver

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/rng"
)

// FuzzIC0Solve drives the whole preconditioned path from generated
// input: a random SPD block matrix, with one entry of its lower
// triangle optionally overwritten by an arbitrary float, is factored,
// and the factor preconditions a CG solve. Whatever the input, nothing
// panics or runs past its iteration budget, an iterate that is not
// finite is never returned without ErrBreakdown, and a factorisation
// fails only with ErrICBreakdown. While the matrix is still provably
// SPD (symmetric with a positive Gershgorin bound: the overwrite kept
// it diagonally dominant) more is owed: the factorisation succeeds, the
// solve converges, and the solution meets its tolerance by the
// matrix's own multiply. CG's residual is a recurrence, so on an
// indefinite matrix "converged" promises nothing and is not checked.
func FuzzIC0Solve(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(5), uint16(0), 1.0)
	f.Add(uint64(2), uint8(3), uint8(1), uint16(7), math.NaN())
	f.Add(uint64(3), uint8(40), uint8(9), uint16(100), math.Inf(1))
	f.Add(uint64(4), uint8(12), uint8(4), uint16(30), -50.0)
	f.Add(uint64(5), uint8(25), uint8(6), uint16(3), 1e300)
	f.Fuzz(func(t *testing.T, seed uint64, nb, bpr uint8, at uint16, v float64) {
		a := bcrs.Random(bcrs.RandomOptions{NB: 1 + int(nb)%48, BlocksPerRow: float64(1 + bpr%10), Seed: seed})
		if v != 1 {
			// Overwrite the same entry of block k and of its mirror, so
			// the matrix stays symmetric where v is finite.
			b := bcrs.NewBuilder(a.NB())
			target := int(at) % a.NNZB()
			ti := rowOf(a, target)
			tj := a.BlockCol(target)
			for i := 0; i < a.NB(); i++ {
				lo, hi := a.RowBlocks(i)
				for k := lo; k < hi; k++ {
					blk := a.BlockAt(k)
					switch j := a.BlockCol(k); {
					case i == ti && j == tj:
						blk[1] = v
						if i == j {
							blk[3] = v
						}
					case i == tj && j == ti:
						blk[3] = v
					}
					b.AddBlock(i, a.BlockCol(k), blk)
				}
			}
			a = b.Build()
		}
		lo, _ := a.GershgorinInterval()
		spd := finite(v) && lo > 0 && a.IsSymmetric(0)
		ic, err := NewIC0(a)
		if err != nil {
			if !errors.Is(err, ErrICBreakdown) {
				t.Fatalf("NewIC0: %v, want ErrICBreakdown or nil", err)
			}
			if spd {
				t.Fatalf("NewIC0 broke down on a diagonally dominant matrix: %v", err)
			}
			return
		}
		n := a.N()
		rhs, x := make([]float64, n), make([]float64, n)
		rng.New(seed ^ 0x9e37).FillNormal(rhs)
		st := CG(a, x, rhs, Options{Precond: ic, MaxIter: 4 * n})
		if st.Iterations > 4*n {
			t.Fatalf("ran %d iterations past a budget of %d", st.Iterations, 4*n)
		}
		finite := true
		for _, xi := range x {
			finite = finite && !math.IsNaN(xi) && !math.IsInf(xi, 0)
		}
		if !finite && !errors.Is(st.Err, ErrBreakdown) {
			t.Fatalf("non-finite iterate with Err = %v, stats %+v", st.Err, st)
		}
		if spd {
			if !st.Converged {
				t.Fatalf("PCG did not converge on a diagonally dominant matrix: %+v", st)
			}
			if res := residual(a, x, rhs); !(res <= 1e-5) {
				t.Fatalf("converged solve has residual %v by the matrix's own multiply", res)
			}
		}
	})
}

// rowOf returns the block row holding stored block k.
func rowOf(a *bcrs.Matrix, k int) int {
	for i := 0; i < a.NB(); i++ {
		if lo, hi := a.RowBlocks(i); k >= lo && k < hi {
			return i
		}
	}
	panic("block index out of range")
}

// FuzzBlockCGDependentColumns builds a block of one to eight right-hand
// sides from a recipe, one byte pair per column: a fresh random base
// column, a copy of an earlier column, an earlier column scaled by
// 10^k for k in -12..12, a zero column, or the sum of two earlier ones.
// Every column is then c = sum_i w_i b_i over the bases b_i, w >= 0,
// and the block owes what the bases alone deliver: every column
// converges, to the tolerance by its true residual (a zero column to
// x = 0), with Err == nil, plain or through IC(0), in no more
// iterations than the block of bases takes to the tolerance that
// guarantees every column's by the triangle inequality,
// tol * min_c ||c|| / sum_i w_i ||b_i||. With a NaN or an infinity
// planted in B it owes ErrBreakdown instead.
func FuzzBlockCGDependentColumns(f *testing.F) {
	f.Add(uint64(1), uint8(3), []byte{0, 0, 2, 9, 0, 0}, false, uint8(0))
	f.Add(uint64(2), uint8(4), []byte{0, 0, 1, 0, 1, 0, 1, 0}, true, uint8(0))
	f.Add(uint64(3), uint8(5), []byte{0, 0, 3, 0, 0, 0, 4, 1, 2, 24}, false, uint8(0))
	f.Add(uint64(4), uint8(8), []byte{0, 0, 0, 0, 4, 1, 2, 0, 2, 18, 0, 0, 4, 5, 3, 0}, true, uint8(0))
	f.Add(uint64(5), uint8(2), []byte{0, 0, 2, 0}, false, uint8(1))
	f.Add(uint64(6), uint8(3), []byte{0, 0, 1, 0, 0, 0}, true, uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, m uint8, recipe []byte, ic0 bool, plant uint8) {
		const tol = 1e-8
		a := bcrs.Random(bcrs.RandomOptions{NB: 40, BlocksPerRow: 5, Seed: seed})
		n, q := a.N(), 1+int(m)%8
		src := rng.New(seed + 1)
		var bases [][]float64
		cols, w := make([][]float64, q), make([][]float64, q) // w[j][i]: base i's weight in column j
		for j := range cols {
			op, arg := 0, 0
			if 2*j+1 < len(recipe) {
				op, arg = int(recipe[2*j])%5, int(recipe[2*j+1])
			}
			if j == 0 && op != 3 {
				op = 0 // nothing earlier to copy, scale or sum
			}
			col, wj := make([]float64, n), make([]float64, q)
			k := arg % max(j, 1) // the earlier column
			switch op {
			case 0:
				src.FillNormal(col)
				wj[len(bases)] = 1
				bases = append(bases, col)
			case 1:
				copy(col, cols[k])
				copy(wj, w[k])
			case 2:
				s := math.Pow(10, float64(arg%25-12))
				for i, v := range cols[k] {
					col[i] = s * v
				}
				for i, v := range w[k] {
					wj[i] = s * v
				}
			case 4:
				l := (arg / 8) % j
				for i := range col {
					col[i] = cols[k][i] + cols[l][i]
				}
				for i := range wj {
					wj[i] = w[k][i] + w[l][i]
				}
			}
			cols[j], w[j] = col, wj
		}
		b := multivec.FromColumns(cols...)
		opt := Options{Tol: tol}
		if ic0 {
			ic, err := NewIC0(a)
			if err != nil {
				t.Fatal(err)
			}
			opt.Precond = ic
		}
		x := multivec.New(n, q)
		if plant != 0 {
			b.Data[int(plant)%len(b.Data)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[plant%3]
			if st := BlockCG(nil, a, x, b, opt); !errors.Is(st.Err, ErrBreakdown) || st.Converged {
				t.Fatalf("non-finite B: Err %v, converged %v", st.Err, st.Converged)
			}
			return
		}
		st := BlockCG(nil, a, x, b, opt)
		if st.Err != nil || !st.Converged {
			t.Fatalf("Err %v, converged %v after %d iterations, residuals %v", st.Err, st.Converged, st.Iterations, st.ColumnResiduals)
		}
		baseTol := tol
		for j, col := range cols {
			norm := blas.Nrm2(col)
			if norm == 0 {
				if blas.Nrm2(x.ColVector(j)) != 0 {
					t.Fatalf("zero column %d has a nonzero solution", j)
				}
				continue
			}
			if r := residual(a, x.ColVector(j), col); !(r <= 10*tol) {
				t.Fatalf("column %d: true residual %g", j, r)
			}
			bound := 0.0
			for i, base := range bases {
				bound += w[j][i] * blas.Nrm2(base)
			}
			baseTol = min(baseTol, tol*norm/bound)
		}
		if len(bases) > 0 {
			opt.Tol = baseTol
			indep := BlockCG(nil, a, multivec.New(n, len(bases)), multivec.FromColumns(bases...), opt)
			if st.Iterations > indep.Iterations {
				t.Fatalf("%d iterations, %d for the %d bases alone to %g (%d dropped)", st.Iterations, indep.Iterations, len(bases), baseTol, st.Dropped)
			}
		}
	})
}
