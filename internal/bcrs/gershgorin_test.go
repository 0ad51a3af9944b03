package bcrs_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/hydro"
	"repro/internal/particles"
)

// gershgorinLoop is GershgorinInterval as it was before it took the
// shape of the m = 1 kernel: a three-way branch per scalar, folded with
// comparisons that are false for NaN. It is the oracle for the bits of
// every bracket without a NaN in it.
func gershgorinLoop(a *bcrs.Matrix) (lo, hi float64) {
	first := true
	for i := 0; i < a.NB(); i++ {
		var center, radius [3]float64
		klo, khi := a.RowBlocks(i)
		for k := klo; k < khi; k++ {
			blk := a.BlockAt(k)
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					v := blk[3*r+c]
					if a.BlockCol(k) == i && r == c {
						center[r] += v
					} else if v < 0 {
						radius[r] -= v
					} else {
						radius[r] += v
					}
				}
			}
		}
		for r := 0; r < 3; r++ {
			l, h := center[r]-radius[r], center[r]+radius[r]
			if first || l < lo {
				lo = l
			}
			if first || h > hi {
				hi = h
			}
			first = false
		}
	}
	return lo, hi
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestGershgorinMatchesScalarLoopBitwise(t *testing.T) {
	mats := map[string]*bcrs.Matrix{
		"empty":       bcrs.NewBuilder(0).Build(),
		"random":      bcrs.Random(bcrs.RandomOptions{NB: 400, BlocksPerRow: 9, Seed: 1}),
		"random wide": bcrs.Random(bcrs.RandomOptions{NB: 90, BlocksPerRow: 40, Bandwidth: 45, Seed: 2}),
	}
	for _, n := range []int{60, 1000} {
		sys, err := particles.New(particles.Options{N: n, Phi: 0.4, Seed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		mats[fmt.Sprintf("sd N=%d", n)] = hydro.Build(sys, hydro.Options{Phi: 0.4})
	}
	// Signed zeros, a row with no diagonal block, an all-zero row and
	// entries whose sums cancel.
	negZero := math.Copysign(0, -1)
	b := bcrs.NewBuilder(4)
	b.AddBlock(0, 0, blas.Mat3{negZero, negZero, 0, negZero, negZero, 1e-300, 0, -1e-300, negZero})
	b.AddBlock(0, 2, blas.Mat3{negZero, negZero, negZero, negZero, negZero, negZero, negZero, negZero, negZero})
	b.AddBlock(1, 3, blas.Mat3{1, -2, 3, -4, 5, -6, 7, -8, 9})
	b.AddBlock(2, 2, blas.Mat3{})
	b.AddBlock(3, 3, blas.Mat3{-1, 0.1, -0.1, 0.1, -1, 0.1, -0.1, 0.1, -1})
	b.AddBlock(3, 0, blas.Mat3{1e16, 1, -1e16, 1, 1, 1, -3, 2, 1})
	mats["signed zeros"] = b.Build()

	for name, a := range mats {
		lo, hi := a.GershgorinInterval()
		wlo, whi := gershgorinLoop(a)
		if !sameBits(lo, wlo) || !sameBits(hi, whi) {
			t.Errorf("%s: [%v, %v] (%x, %x), scalar loop [%v, %v] (%x, %x)", name, lo, hi,
				math.Float64bits(lo), math.Float64bits(hi), wlo, whi, math.Float64bits(wlo), math.Float64bits(whi))
		}
	}
}

// TestGershgorinPropagatesNonFinite: the scalar loop's comparisons were
// false for NaN, so a NaN in any row but the first left a finite
// bracket and the step ran on to a solver breakdown. A NaN anywhere now
// makes both bounds NaN, and an infinity makes the bracket non-finite.
func TestGershgorinPropagatesNonFinite(t *testing.T) {
	const nb = 50
	base := bcrs.Random(bcrs.RandomOptions{NB: nb, BlocksPerRow: 6, Seed: 3})
	offDiag := func(i int) int { // a stored off-diagonal column of row i
		lo, hi := base.RowBlocks(i)
		for k := lo; k < hi; k++ {
			if base.BlockCol(k) != i {
				return base.BlockCol(k)
			}
		}
		t.Fatalf("row %d has no off-diagonal block", i)
		return 0
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, row := range []int{0, nb / 2, nb - 1} {
			for _, col := range []int{row, offDiag(row)} {
				for _, entry := range []int{0, 5} { // a diagonal and an off-diagonal scalar
					b := bcrs.NewBuilder(nb)
					for i := 0; i < nb; i++ {
						lo, hi := base.RowBlocks(i)
						for k := lo; k < hi; k++ {
							blk := base.BlockAt(k)
							if i == row && base.BlockCol(k) == col {
								blk[entry] = bad
							}
							b.AddBlock(i, base.BlockCol(k), blk)
						}
					}
					lo, hi := b.Build().GershgorinInterval()
					if bad != bad && !(lo != lo && hi != hi) {
						t.Errorf("NaN at block (%d, %d) entry %d: bracket [%v, %v], want NaN", row, col, entry, lo, hi)
					}
					if lo-lo == 0 && hi-hi == 0 {
						t.Errorf("%v at block (%d, %d) entry %d: finite bracket [%v, %v]", bad, row, col, entry, lo, hi)
					}
				}
			}
		}
	}
}
