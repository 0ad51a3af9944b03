package bcrs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func randBlock(rng *rand.Rand) blas.Mat3 {
	var b blas.Mat3
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	b.AddBlock(0, 0, blas.Ident3())
	b.AddBlock(2, 1, blas.Ident3().ScaleM(2))
	b.AddBlock(1, 2, blas.Ident3().ScaleM(3))
	a := b.Build()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NB() != 3 || a.N() != 9 || a.NNZB() != 3 || a.NNZ() != 27 {
		t.Fatalf("stats wrong: %+v", a.Stats())
	}
	d := a.Dense()
	if d.At(0, 0) != 1 || d.At(6, 3) != 2 || d.At(4, 7) != 3 {
		t.Fatal("Dense conversion wrong")
	}
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2)
	b.AddBlock(0, 1, blas.Ident3())
	b.AddBlock(0, 1, blas.Ident3().ScaleM(2))
	a := b.Build()
	if a.NNZB() != 1 {
		t.Fatalf("NNZB = %d, want 1 (duplicates must merge)", a.NNZB())
	}
	if got := a.BlockAt(0); got.At(0, 0) != 3 {
		t.Fatalf("merged block = %v, want 3*I", got)
	}
}

func TestBuilderSortsColumns(t *testing.T) {
	b := NewBuilder(4)
	b.AddBlock(1, 3, blas.Ident3())
	b.AddBlock(1, 0, blas.Ident3())
	b.AddBlock(1, 2, blas.Ident3())
	a := b.Build()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	lo, hi := a.RowBlocks(1)
	if hi-lo != 3 {
		t.Fatalf("row 1 has %d blocks", hi-lo)
	}
	prev := -1
	for k := lo; k < hi; k++ {
		if a.BlockCol(k) <= prev {
			t.Fatal("columns not sorted")
		}
		prev = a.BlockCol(k)
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder(2)
	b.AddBlock(0, 0, blas.Ident3())
	first := b.Build()
	if len(b.rows) != 0 {
		t.Fatal("builder not reset after Build")
	}
	b.AddBlock(1, 1, blas.Ident3())
	second := b.Build()
	if first.NNZB() != 1 || second.NNZB() != 1 {
		t.Fatal("builds interfered")
	}
	if second.Dense().At(0, 0) != 0 {
		t.Fatal("second build contains first build's data")
	}
}

func TestAddDiag(t *testing.T) {
	b := NewBuilder(3)
	b.AddDiag(2.5)
	a := b.Build()
	d := a.Dense()
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			want := 0.0
			if i == j {
				want = 2.5
			}
			if d.At(i, j) != want {
				t.Fatalf("AddDiag wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestAddDiagScaled(t *testing.T) {
	b := NewBuilder(2)
	b.AddDiagScaled([]float64{1, 4})
	a := b.Build()
	d := a.Dense()
	if d.At(0, 0) != 1 || d.At(3, 3) != 4 || d.At(5, 5) != 4 {
		t.Fatal("AddDiagScaled wrong")
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 12
	d := blas.NewDense(n, n)
	for i := range d.Data {
		if rng.Float64() < 0.3 {
			d.Data[i] = rng.NormFloat64()
		}
	}
	a := FromDense(d)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	back := a.Dense()
	for i := range d.Data {
		if back.Data[i] != d.Data[i] {
			t.Fatal("FromDense round trip failed")
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	b := NewBuilder(2)
	blk := blas.Mat3{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b.AddBlock(0, 1, blk)
	b.AddBlock(1, 0, blk.Transpose3())
	b.AddDiag(1)
	a := b.Build()
	if !a.IsSymmetric(0) {
		t.Fatal("symmetric matrix not detected")
	}

	b2 := NewBuilder(2)
	b2.AddBlock(0, 1, blk)
	b2.AddBlock(1, 0, blk) // not transposed: asymmetric
	b2.AddDiag(1)
	a2 := b2.Build()
	if a2.IsSymmetric(1e-12) {
		t.Fatal("asymmetric matrix passed")
	}

	// Structurally asymmetric.
	b3 := NewBuilder(2)
	b3.AddBlock(0, 1, blk)
	b3.AddDiag(1)
	a3 := b3.Build()
	if a3.IsSymmetric(1e-12) {
		t.Fatal("structurally asymmetric matrix passed")
	}
}

func TestBalanceRowsCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		nb := 1 + rng.Intn(200)
		b := NewBuilder(nb)
		for i := 0; i < nb; i++ {
			k := rng.Intn(8)
			for p := 0; p < k; p++ {
				b.AddBlock(i, rng.Intn(nb), randBlock(rng))
			}
			b.AddBlock(i, i, blas.Ident3())
		}
		a := b.Build()
		for threads := 1; threads <= 9; threads++ {
			covered := 0
			prev := 0
			for _, r := range balanceRows(a.rowPtr, a.nb, threads) {
				if r.lo != prev {
					t.Fatalf("ranges not contiguous: lo=%d prev=%d", r.lo, prev)
				}
				if r.hi <= r.lo {
					t.Fatalf("empty range %+v", r)
				}
				covered += r.hi - r.lo
				prev = r.hi
			}
			if covered != nb {
				t.Fatalf("threads=%d covered %d of %d rows", threads, covered, nb)
			}
		}
	}
}

func TestBalanceRowsBalancesNNZ(t *testing.T) {
	// A matrix whose first row holds half the non-zeros: the first
	// partition must not also swallow the remaining rows.
	nb := 100
	b := NewBuilder(nb)
	for j := 0; j < nb; j++ {
		b.AddBlock(0, j, blas.Ident3())
	}
	for i := 1; i < nb; i++ {
		b.AddBlock(i, i, blas.Ident3())
	}
	a := b.Build()
	ranges := balanceRows(a.rowPtr, a.nb, 2)
	if len(ranges) != 2 {
		t.Fatalf("want 2 ranges, got %d", len(ranges))
	}
	// First range should be just the heavy row (nnz 100 ~ half of 199).
	if ranges[0].hi > 5 {
		t.Fatalf("nnz balancing failed: first range %+v", ranges[0])
	}
}

func TestStats(t *testing.T) {
	a := Random(RandomOptions{NB: 50, BlocksPerRow: 5, Seed: 1})
	st := a.Stats()
	if st.NB != 50 || st.N != 150 {
		t.Fatalf("stats dims wrong: %+v", st)
	}
	if st.NNZ != st.NNZB*9 {
		t.Fatal("NNZ != 9*NNZB")
	}
	if math.Abs(st.BlocksPerRow-5) > 2 {
		t.Fatalf("BlocksPerRow = %v, want ~5", st.BlocksPerRow)
	}
	wantBytes := int64(st.NNZB)*72 + int64(st.NNZB)*4 + int64(st.NB+1)*4
	if st.Bytes != wantBytes {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, wantBytes)
	}
}

func TestFlopCount(t *testing.T) {
	a := Random(RandomOptions{NB: 20, BlocksPerRow: 4, Seed: 3})
	if a.FlopCount(5) != int64(a.NNZB())*18*5 {
		t.Fatal("FlopCount wrong")
	}
}

func TestRandomSymmetricSPD(t *testing.T) {
	a := Random(RandomOptions{NB: 30, BlocksPerRow: 6, Seed: 7})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsSymmetric(1e-14) {
		t.Fatal("Random matrix must be symmetric")
	}
	// Positive definite: dense Cholesky must succeed.
	if _, err := blas.Cholesky(a.Dense()); err != nil {
		t.Fatalf("Random matrix not SPD: %v", err)
	}
}

func TestRandomDensityTracksRequest(t *testing.T) {
	for _, bpr := range []float64{2, 5.6, 12, 24.9} {
		a := Random(RandomOptions{NB: 2000, BlocksPerRow: bpr, Seed: 11})
		got := a.BlocksPerRow()
		if math.Abs(got-bpr)/bpr > 0.25 {
			t.Fatalf("requested %v blocks/row, got %v", bpr, got)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := Random(RandomOptions{NB: 10, BlocksPerRow: 3, Seed: 5})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	a.colIdx[0] = 99 // out of range
	if err := a.Validate(); err == nil {
		t.Fatal("Validate missed out-of-range column")
	}
}
