package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
)

func TestIC0ExactOnBlockDiagonal(t *testing.T) {
	// With a block-diagonal matrix, zero fill-in loses nothing: the
	// preconditioner is exact and PCG converges immediately.
	rnd := rand.New(rand.NewSource(1))
	nb := 12
	b := bcrs.NewBuilder(nb)
	for i := 0; i < nb; i++ {
		var blk blas.Mat3
		for q := range blk {
			blk[q] = rnd.NormFloat64() * 0.2
		}
		spd := blk.Transpose3()
		for q := range spd {
			spd[q] += blk[q]
		}
		spd[0], spd[4], spd[8] = spd[0]+3, spd[4]+3, spd[8]+3
		b.AddBlock(i, i, spd)
	}
	a := b.Build()
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := randVec(2, a.N())
	x := make([]float64, a.N())
	st := CG(a, x, rhs, Options{Precond: ic})
	if !st.Converged || st.Iterations > 2 {
		t.Fatalf("exact IC0 should converge in ~1 iteration: %+v", st)
	}
}

func TestIC0ApplyIsInverseOfLLt(t *testing.T) {
	// ApplyBlock must invert exactly the operator L L^T the
	// factorization produced (even though L L^T only approximates A).
	a := spdMatrix(3, 30, 5)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	z := randVec(4, n)
	y := make([]float64, n)
	ic.ApplyBlock(multivec.FromVector(y), multivec.FromVector(z))
	// Verify L L^T y == z by building L densely from the factor.
	l := denseFactor(t, ic)
	llt := l.Mul(l.Transpose())
	back := make([]float64, n)
	llt.MatVec(back, y)
	for i := range back {
		if math.Abs(back[i]-z[i]) > 1e-8*(1+math.Abs(z[i])) {
			t.Fatalf("L L^T M^{-1} z != z at %d: %v vs %v", i, back[i], z[i])
		}
	}
}

// denseFactor builds the factor's L densely: the strict-lower blocks as
// stored, the diagonal blocks back from their stored inverses.
func denseFactor(t *testing.T, ic *IC0) *blas.Dense {
	t.Helper()
	n := 3 * ic.nb
	l := blas.NewDense(n, n)
	put := func(i, j int, blk []float64) {
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				l.Set(3*i+r, 3*j+c, blk[3*r+c])
			}
		}
	}
	for i := 0; i < ic.nb; i++ {
		for k := int(ic.rowPtr[i]); k < int(ic.rowPtr[i+1]); k++ {
			put(i, int(ic.colIdx[k]), ic.lower[9*k:9*k+9])
		}
		var inv blas.Mat3
		copy(inv[:], ic.invDiag[9*i:9*i+9])
		d, ok := inv3(inv)
		if !ok {
			t.Fatalf("diagonal block %d of the factor is singular", i)
		}
		put(i, i, d[:])
	}
	return l
}

// inv3 returns the inverse of m by its cofactors and reports whether
// m is invertible (determinant not numerically zero).
func inv3(m blas.Mat3) (blas.Mat3, bool) {
	c00 := m[4]*m[8] - m[5]*m[7]
	c01 := m[5]*m[6] - m[3]*m[8]
	c02 := m[3]*m[7] - m[4]*m[6]
	det := m[0]*c00 + m[1]*c01 + m[2]*c02
	if math.Abs(det) < 1e-300 {
		return blas.Mat3{}, false
	}
	inv := 1 / det
	return blas.Mat3{
		c00 * inv,
		(m[2]*m[7] - m[1]*m[8]) * inv,
		(m[1]*m[5] - m[2]*m[4]) * inv,
		c01 * inv,
		(m[0]*m[8] - m[2]*m[6]) * inv,
		(m[2]*m[3] - m[0]*m[5]) * inv,
		c02 * inv,
		(m[1]*m[6] - m[0]*m[7]) * inv,
		(m[0]*m[4] - m[1]*m[3]) * inv,
	}, true
}

// TestIC0MulLIsTheFactor: MulL multiplies by the L whose L L^T
// ApplyBlock inverts, at every width, and column j of a block is bitwise MulL on
// column j alone.
func TestIC0MulLIsTheFactor(t *testing.T) {
	a := spdMatrix(5, 40, 6)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	l := denseFactor(t, ic)
	xc, yc, want := make([]float64, n), make([]float64, n), make([]float64, n)
	for _, m := range []int{1, 3, 16} {
		x, y := multivec.New(n, m), multivec.New(n, m)
		copy(x.Data, randVec(int64(6+m), n*m))
		ic.MulL(y, x)
		for j := 0; j < m; j++ {
			x.Col(j, xc)
			l.MatVec(want, xc)
			for i := range want {
				if got := y.At(i, j); math.Abs(got-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("m=%d column %d row %d: MulL %v, dense L %v", m, j, i, got, want[i])
				}
			}
			ic.MulL(multivec.FromVector(yc), multivec.FromVector(xc))
			for i := range yc {
				if yc[i] != y.At(i, j) {
					t.Fatalf("m=%d column %d row %d: block %v, alone %v", m, j, i, y.At(i, j), yc[i])
				}
			}
		}
	}
}

func TestIC0AcceleratesCG(t *testing.T) {
	a := spdMatrix(6, 150, 8)
	rhs := randVec(7, a.N())
	plain := make([]float64, a.N())
	stPlain := CG(a, plain, rhs, Options{})
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	pre := make([]float64, a.N())
	stPre := CG(a, pre, rhs, Options{Precond: ic})
	if !stPre.Converged {
		t.Fatal("IC0-PCG did not converge")
	}
	if stPre.Iterations >= stPlain.Iterations {
		t.Fatalf("IC0 did not reduce iterations: %d vs %d", stPre.Iterations, stPlain.Iterations)
	}
	// Same solution.
	for i := range plain {
		if math.Abs(plain[i]-pre[i]) > 1e-4*(1+math.Abs(plain[i])) {
			t.Fatal("IC0-PCG solution differs")
		}
	}
}

func TestIC0RejectsRectangular(t *testing.T) {
	b := bcrs.NewBuilderRect(2, 3)
	b.AddBlock(0, 0, blas.Ident3())
	b.AddBlock(1, 1, blas.Ident3())
	if _, err := NewIC0(b.Build()); err == nil {
		t.Fatal("expected error for rectangular matrix")
	}
}

func TestIC0RequiresDiagonal(t *testing.T) {
	b := bcrs.NewBuilder(2)
	b.AddBlock(0, 0, blas.Ident3())
	b.AddBlock(1, 0, blas.Ident3().ScaleM(0.1)) // row 1 has no diagonal
	if _, err := NewIC0(b.Build()); err == nil {
		t.Fatal("expected error for missing diagonal block")
	}
}

func TestIC0ReuseAcrossNearbyMatrices(t *testing.T) {
	// The paper's technique: factor once, keep using it while the
	// matrix drifts. A preconditioner built from A must still
	// accelerate A' = A + small perturbation.
	a := spdMatrix(8, 120, 8)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	d := a.Dense()
	for i := range d.Data {
		d.Data[i] *= 1.02
	}
	aNew := bcrs.FromDense(d)
	rhs := randVec(9, a.N())
	plain := make([]float64, aNew.N())
	stPlain := CG(aNew, plain, rhs, Options{})
	pre := make([]float64, aNew.N())
	stPre := CG(aNew, pre, rhs, Options{Precond: ic})
	if !stPre.Converged {
		t.Fatal("stale IC0 stalled")
	}
	if stPre.Iterations >= stPlain.Iterations {
		t.Fatalf("stale IC0 did not help: %d vs %d", stPre.Iterations, stPlain.Iterations)
	}
}

// poisoned returns a copy of a in which one entry of the lower
// triangle, from the middle row on, is v: in a diagonal block, or with
// strict in the first strict-lower block found.
func poisoned(a *bcrs.Matrix, strict bool, v float64) *bcrs.Matrix {
	b := bcrs.NewBuilder(a.NB())
	done := false
	for i := 0; i < a.NB(); i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			j, blk := a.BlockCol(k), a.BlockAt(k)
			if !done && i >= a.NB()/2 && ((strict && j < i) || (!strict && j == i)) {
				blk[0], done = v, true
			}
			b.AddBlock(i, j, blk)
		}
	}
	return b.Build()
}

// TestIC0NonFiniteFailsTyped: a NaN compares false against everything,
// so a pivot test written as d <= 0 lets it through and hands back a
// NaN factor with a nil error. Every non-finite input the lower
// triangle can hold must come back as ErrICBreakdown, from the first
// attempt (no shift makes a NaN positive).
func TestIC0NonFiniteFailsTyped(t *testing.T) {
	a := spdMatrix(31, 40, 6)
	for _, tc := range []struct {
		name   string
		strict bool
		v      float64
	}{
		{"NaN diagonal", false, math.NaN()},
		{"+Inf diagonal", false, math.Inf(1)},
		{"-Inf diagonal", false, math.Inf(-1)},
		{"NaN lower", true, math.NaN()},
		{"Inf lower", true, math.Inf(1)},
		{"overflowing lower", true, 1e200},
	} {
		bad := poisoned(a, tc.strict, tc.v)
		ic := new(IC0)
		if err := ic.setPattern(bad); err != nil {
			t.Fatal(err)
		}
		if pivot, ok := ic.factor(bad, 0); ok || !(math.IsNaN(pivot) || math.IsInf(pivot, 0)) {
			t.Errorf("%s: factor gave pivot %v ok=%v, want a non-finite pivot reported", tc.name, pivot, ok)
		}
		if _, err := NewIC0(bad); !errors.Is(err, ErrICBreakdown) {
			t.Errorf("%s: NewIC0 error %v, want ErrICBreakdown", tc.name, err)
		}
	}
	if _, _, ok := chol3(blas.Mat3{1, 0, 0, 0, math.NaN(), 0, 0, 0, 1}); ok {
		t.Error("chol3 accepted a NaN pivot")
	}
}

// TestIC0ShiftRetry: a symmetric matrix whose second pivot goes
// negative factors on the first shifted retry, over the pattern
// extracted once, and the shifted factor still preconditions.
func TestIC0ShiftRetry(t *testing.T) {
	b := bcrs.NewBuilder(2)
	b.AddBlock(0, 0, blas.Ident3())
	b.AddBlock(1, 1, blas.Ident3())
	b.AddBlock(1, 0, blas.Ident3().ScaleM(1.0005))
	b.AddBlock(0, 1, blas.Ident3().ScaleM(1.0005))
	a := b.Build()
	ic := new(IC0)
	if err := ic.setPattern(a); err != nil {
		t.Fatal(err)
	}
	if pivot, ok := ic.factor(a, 0); ok || !(pivot < 0) {
		t.Fatalf("unshifted factor: pivot %v ok=%v, want a negative pivot", pivot, ok)
	}
	if err := ic.Refactor(a); err != nil {
		t.Fatalf("shifted retry failed: %v", err)
	}
	z, r := make([]float64, 6), []float64{1, 2, 3, 4, 5, 6}
	ic.ApplyBlock(multivec.FromVector(z), multivec.FromVector(r))
	for _, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("shifted factor applied to %v gave %v", r, z)
		}
	}
}

// TestIC0RefactorMatchesFresh: a factor refilled in place — from a
// smaller matrix, a larger one, another pattern of the same size —
// applies bitwise like one built fresh from the same matrix.
func TestIC0RefactorMatchesFresh(t *testing.T) {
	ic, err := NewIC0(spdMatrix(41, 50, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*bcrs.Matrix{spdMatrix(42, 50, 7), spdMatrix(43, 20, 4), spdMatrix(44, 90, 8), spdMatrix(45, 50, 6)} {
		if err := ic.Refactor(a); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewIC0(a)
		if err != nil {
			t.Fatal(err)
		}
		r := randVec(46, a.N())
		got, want := make([]float64, a.N()), make([]float64, a.N())
		ic.ApplyBlock(multivec.FromVector(got), multivec.FromVector(r))
		fresh.ApplyBlock(multivec.FromVector(want), multivec.FromVector(r))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nb=%d: refactored ApplyBlock differs from fresh at %d: %v vs %v", a.NB(), i, got[i], want[i])
			}
		}
	}
}

// TestIC0ApplyBlockMatchesApply: column j of the block sweep is
// bitwise the single-vector sweep (ApplyBlock at m = 1) of column j —
// the Preconditioner contract — at every width 1..33, which covers every width a fused
// solve compacts to: those the Go loops serve alone (1-3), those the
// assembly takes whole (multiples of 4) and those where it takes the
// leading columns and the loops the m%4 tail; with the assembly on and
// off on either side.
func TestIC0ApplyBlockMatchesApply(t *testing.T) {
	a := spdMatrix(51, 70, 7)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	for m := 1; m <= 33; m++ {
		r := multivec.New(n, m)
		copy(r.Data, randVec(int64(52+m), n*m))
		for _, simd := range simdModes {
			z := multivec.New(n, m)
			for i := range z.Data {
				z.Data[i] = 123 // every entry must be written
			}
			withSIMD(simd, func() { ic.ApplyBlock(z, r) })
			rc, zc, want := make([]float64, n), make([]float64, n), make([]float64, n)
			for j := 0; j < m; j++ {
				r.Col(j, rc)
				withSIMD(!simd, func() { ic.ApplyBlock(multivec.FromVector(want), multivec.FromVector(rc)) })
				z.Col(j, zc)
				for i := range want {
					if zc[i] != want[i] {
						t.Fatalf("m=%d simd=%v column %d row %d: ApplyBlock %v, alone %v", m, simd, j, i, zc[i], want[i])
					}
				}
			}
		}
	}
}

// columnOnly is the Preconditioner contract's oracle: its ApplyBlock
// copies each column out, applies the wrapped ApplyBlock to it alone
// and copies it back.
type columnOnly struct{ p Preconditioner }

func (c columnOnly) ApplyBlock(z, r *multivec.MultiVec) {
	rc, zc := make([]float64, r.N), make([]float64, r.N)
	for j := 0; j < r.M; j++ {
		r.Col(j, rc)
		c.p.ApplyBlock(multivec.FromVector(zc), multivec.FromVector(rc))
		z.SetCol(j, zc)
	}
}

// TestBlockCGBlockPrecondMatchesColumns: preconditioning a block solve
// through IC0.ApplyBlock is bitwise what the copy-out / ApplyBlock /
// copy-in loop computes.
func TestBlockCGBlockPrecondMatchesColumns(t *testing.T) {
	a := spdMatrix(61, 80, 7)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	const m = 6
	b := multivec.New(a.N(), m)
	copy(b.Data, randVec(62, a.N()*m))
	x1, x2 := multivec.New(a.N(), m), multivec.New(a.N(), m)
	st1 := BlockCG(nil, a, x1, b, Options{Precond: ic})
	st2 := BlockCG(nil, a, x2, b, Options{Precond: columnOnly{ic}})
	if !st1.Converged || st1.Iterations != st2.Iterations {
		t.Fatalf("block path %+v, column path %+v", st1.Stats, st2.Stats)
	}
	for i := range x1.Data {
		if x1.Data[i] != x2.Data[i] {
			t.Fatalf("solutions differ at %d: %v vs %v", i, x1.Data[i], x2.Data[i])
		}
	}
}

// TestIC0DoesNotAllocate pins the sweeps and the in-place refactor at
// zero heap allocations once warm: ApplyBlock runs in every iteration
// of every solve of the SD step.
func TestIC0DoesNotAllocate(t *testing.T) {
	a := spdMatrix(71, 150, 8)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, f func()) {
		f()
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
	r, z := multivec.FromVector(randVec(72, a.N())), multivec.FromVector(make([]float64, a.N()))
	check("ApplyBlock/1", func() { ic.ApplyBlock(z, r) })
	rb, zb := multivec.New(a.N(), 16), multivec.New(a.N(), 16)
	copy(rb.Data, randVec(73, a.N()*16))
	check("ApplyBlock", func() { ic.ApplyBlock(zb, rb) })
	check("MulL", func() { ic.MulL(zb, rb) })
	check("Refactor", func() {
		if err := ic.Refactor(a); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkIC0ApplyBlock is the factor's two sweeps at the served shape
// (NB = 6000, 24 blocks per row) at the widths a served batch runs:
// m = 2, 3 and 5 take the AVX-512 sweeps' masked groups where the host
// has them, and the AVX2 sweeps' Go loops where it has not.
func BenchmarkIC0ApplyBlock(b *testing.B) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 6000, BlocksPerRow: 24, Seed: 1})
	ic, err := NewIC0(a)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{1, 2, 3, 4, 5, 8, 16, 32} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			r, z := multivec.New(a.N(), m), multivec.New(a.N(), m)
			copy(r.Data, randVec(int64(m), a.N()*m))
			for i := 0; i < b.N; i++ {
				ic.ApplyBlock(z, r)
			}
		})
	}
}
