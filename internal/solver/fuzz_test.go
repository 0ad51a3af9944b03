package solver

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bcrs"
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
