package chebyshev

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/multivec"
	"repro/internal/rng"
)

// combineCase fills a workspace for m columns of n rows with k basis
// blocks of normal deviates, gives column j the coefficients of
// column j%2 of a fixed pair (k and k-1 steps, so an odd column has a
// zero term where an even one has its last), lists every column and
// returns y after combine.
func combineCase(t *testing.T, w *lanczos, n, m, k int, seed uint64) *multivec.MultiVec {
	t.Helper()
	w.reset(n, m)
	s := rng.New(seed)
	for b := range k {
		p := w.basis(b)
		for i := range n {
			v := s.Normal()
			for j := range m { // every column carries the same basis
				p.Data[i*m+j] = v
			}
		}
	}
	pair := [2]column{}
	for c := range pair {
		steps := k - c
		for range max(steps, 0) {
			pair[c].coef = append(pair[c].coef, s.Normal())
			pair[c].gamma = append(pair[c].gamma, 0.5+math.Abs(s.Normal()))
		}
		pair[c].prev = append(pair[c].prev, pair[c].coef[:max(steps-1, 0)]...)
	}
	var cols []int
	for j := range w.cols {
		c := &w.cols[j]
		src := &pair[j%2]
		c.coef = append(c.coef[:0], src.coef...)
		c.gamma = append(c.gamma[:0], src.gamma...)
		c.prev = append(c.prev[:0], src.prev...)
		cols = append(cols, j)
	}
	y := multivec.New(n, m)
	if err := w.combine(y, cols); err != nil {
		t.Fatalf("n=%d m=%d k=%d: %v", n, m, k, err)
	}
	return y
}

// TestCombineColumnsMatchLone holds combine to one order whatever path
// a column takes: a one-column call with the AVX2 kernel and with the
// Go loops, and the same column as a lane of a block whose first
// columns run four at a time and whose last runs alone, must give the
// same y and the same moved and norm, bit for bit, and the one-column
// paths the same partial sums. The row counts cross the eight-row
// group and the 4096-row chunks.
func TestCombineColumnsMatchLone(t *testing.T) {
	var w, wb lanczos
	for _, n := range []int{0, 1, 3, 7, 8, 9, 13, 15, 3000, 3007, 8193, 8203} {
		for _, k := range []int{0, 1, 2, 5, 9} {
			seed := uint64(100*n + k)
			want := combineCase(t, &w, n, 1, k, seed)
			wantCol, wantSums := w.cols[0], slices.Clone(w.sums)
			func() {
				defer func(saved bool) { cpufeat.AVX2 = saved }(cpufeat.AVX2)
				cpufeat.AVX2 = false
				got := combineCase(t, &w, n, 1, k, seed)
				checkCombined(t, "Go loops", n, k, want.Data, got.Data, wantCol, w.cols[0])
				// One column's partials have one layout on both paths.
				for i, v := range wantSums {
					if math.Float64bits(w.sums[i]) != math.Float64bits(v) {
						t.Fatalf("Go loops n=%d k=%d: partial %d = %v, want %v", n, k, i, w.sums[i], v)
					}
				}
			}()
			const m = 6 // columns 0-3 four at a time, 4 and 5 alone
			got := combineCase(t, &wb, n, m, k, seed)
			for j := 0; j < m; j += 2 {
				checkCombined(t, "block lane", n, k, want.Data, got.ColVector(j), wantCol, wb.cols[j])
			}
		}
	}
}

func checkCombined(t *testing.T, what string, n, k int, want, got []float64, wc, gc column) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d k=%d: y[%d] = %v, want %v", what, n, k, i, got[i], want[i])
		}
	}
	if math.Float64bits(gc.moved) != math.Float64bits(wc.moved) || math.Float64bits(gc.norm) != math.Float64bits(wc.norm) {
		t.Fatalf("%s n=%d k=%d: moved, norm = %v, %v, want %v, %v", what, n, k, gc.moved, gc.norm, wc.moved, wc.norm)
	}
}
