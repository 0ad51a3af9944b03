package bcrs

import (
	"math/rand"
	"testing"

	"repro/internal/multivec"
)

func TestNewSymHalvesStorage(t *testing.T) {
	a := Random(RandomOptions{NB: 200, BlocksPerRow: 10, Seed: 1})
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	full := a.Stats().Bytes
	half := int64(len(s.vals))*8 + int64(len(s.colIdx))*4 + int64(len(s.rowPtr))*4
	if half >= full*2/3 {
		t.Fatalf("symmetric storage %d bytes vs full %d: not close to half", half, full)
	}
	// Off-diagonal blocks stored once, diagonal once:
	// nnzb_sym = (nnzb_full + nb) / 2 for a matrix with full diagonal.
	want := (a.NNZB() + a.NB()) / 2
	if s.NNZB() != want {
		t.Fatalf("stored blocks %d, want %d", s.NNZB(), want)
	}
}

func TestNewSymRejectsAsymmetric(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	a := randMatrix(rnd, 10, 0.3)
	if _, err := NewSym(a); err == nil {
		t.Fatal("expected error for asymmetric matrix")
	}
}

func TestSymMulVecMatchesFull(t *testing.T) {
	a := Random(RandomOptions{NB: 120, BlocksPerRow: 8, Seed: 3})
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(4))
	x := make([]float64, a.N())
	for i := range x {
		x[i] = rnd.NormFloat64()
	}
	y := make([]float64, a.N())
	s.Mul(multivec.FromVector(y), multivec.FromVector(x))
	ref := make([]float64, a.N())
	a.MulVec(ref, x)
	for i := range y {
		if !almostEqual(y[i], ref[i], 1e-12) {
			t.Fatalf("symmetric one-column Mul differs at %d: %v vs %v", i, y[i], ref[i])
		}
	}
}

func TestSymMulMatchesFull(t *testing.T) {
	a := Random(RandomOptions{NB: 80, BlocksPerRow: 6, Seed: 5})
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 3, 8, 16} {
		rnd := rand.New(rand.NewSource(int64(m)))
		x := multivec.New(a.N(), m)
		for i := range x.Data {
			x.Data[i] = rnd.NormFloat64()
		}
		y := multivec.New(a.N(), m)
		s.Mul(y, x)
		ref := multivec.New(a.N(), m)
		a.Mul(ref, x)
		for i := range y.Data {
			if !almostEqual(y.Data[i], ref.Data[i], 1e-12) {
				t.Fatalf("m=%d: symmetric Mul differs at %d", m, i)
			}
		}
	}
}

func TestSymDiagonalOnlyMatrix(t *testing.T) {
	b := NewBuilder(5)
	b.AddDiag(2)
	a := b.Build()
	s, err := NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N())
	for i := range x {
		x[i] = float64(i)
	}
	y := make([]float64, a.N())
	s.Mul(multivec.FromVector(y), multivec.FromVector(x))
	for i := range y {
		if y[i] != 2*x[i] {
			t.Fatal("diagonal symmetric multiply wrong")
		}
	}
}
