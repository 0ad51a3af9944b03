package multivec

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// The column sweeps against one column at a time: each lane must hold
// exactly what a lone contiguous vector gets from the textbook loop
// (the blas.Dot/Axpy order, product rounded before the add), and the
// padding lanes must come back untouched.

// hostileBlock returns an n-by-w block, padding lanes included, of
// normal deviates with NaN, +-Inf, +-0 and a subnormal planted.
func hostileBlock(n, w int, s *rng.Stream, hostile bool) *MultiVec {
	v := &MultiVec{N: n, M: w, Data: make([]float64, n*w)}
	fillHostile(v.Data, s, hostile)
	return v
}

// laneWidths returns the block widths a q-lane sweep is tried at: the
// exact fit and the power of two a kernel width would pad it to.
func laneWidths(q int) []int {
	w := 1
	for w < q {
		w *= 2
	}
	if w == q {
		return []int{q}
	}
	return []int{q, w}
}

func refDot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// checkLanes fails unless the q leading columns of got equal want's
// contiguous columns and every other lane still equals before.
func checkLanes(t *testing.T, what string, got, before *MultiVec, want [][]float64) {
	t.Helper()
	q := len(want)
	for j := 0; j < got.M; j++ {
		ref := before.ColVector(j)
		if j < q {
			ref = want[j]
		}
		if i := sameBits(got.ColVector(j), ref); i >= 0 {
			t.Fatalf("%s: lane %d (of %d live, width %d) differs at row %d: %v, want %v",
				what, j, q, got.M, i, got.At(i, j), ref[i])
		}
	}
}

func checkSweeps(t *testing.T, n, q, w int, seed uint64, hostile bool) {
	t.Helper()
	s := rng.New(seed)
	x, r, p, ap := hostileBlock(n, w, s, hostile), hostileBlock(n, w, s, hostile), hostileBlock(n, w, s, hostile), hostileBlock(n, w, s, hostile)
	alpha, beta := make([]float64, q), make([]float64, q)
	fillHostile(alpha, s, hostile)
	fillHostile(beta, s, hostile)
	cols := func(v *MultiVec) [][]float64 {
		c := make([][]float64, q)
		for j := range c {
			c[j] = v.ColVector(j)
		}
		return c
	}
	what := func(op string) string { return fmt.Sprintf("%s n=%d q=%d w=%d seed=%d", op, n, q, w, seed) }

	// ColDots.
	dots := make([]float64, q)
	fillHostile(dots, s, hostile) // must be overwritten, not accumulated into
	ColDots(dots, p, ap)
	pc, apc := cols(p), cols(ap)
	for j := range dots {
		if want := refDot(pc[j], apc[j]); sameBits(dots[j:j+1], []float64{want}) >= 0 {
			t.Fatalf("%s: lane %d = %v, want %v", what("ColDots"), j, dots[j], want)
		}
	}

	// ColResidual, out of place and with r aliasing each input.
	bc, axc := cols(r), cols(ap)
	wantR, wantBB, wantRR := make([][]float64, q), make([]float64, q), make([]float64, q)
	for j := range wantR {
		wantR[j] = make([]float64, n)
		for i := range wantR[j] {
			wantR[j][i] = bc[j][i] - axc[j][i]
		}
		wantBB[j], wantRR[j] = refDot(bc[j], bc[j]), refDot(wantR[j], wantR[j])
	}
	for _, alias := range []string{"none", "b", "ax"} {
		b, ax, before := r.Clone(), ap.Clone(), x
		dst := x.Clone()
		switch alias {
		case "b":
			dst, before = b, r
		case "ax":
			dst, before = ax, ap
		}
		bb, rr := make([]float64, q), make([]float64, q)
		fillHostile(bb, s, hostile)
		fillHostile(rr, s, hostile)
		ColResidual(dst, b, ax, bb, rr)
		checkLanes(t, what("ColResidual alias="+alias), dst, before, wantR)
		if i := sameBits(bb, wantBB); i >= 0 {
			t.Fatalf("%s: bb[%d] = %v, want %v", what("ColResidual"), i, bb[i], wantBB[i])
		}
		if i := sameBits(rr, wantRR); i >= 0 {
			t.Fatalf("%s: rr[%d] = %v, want %v", what("ColResidual"), i, rr[i], wantRR[i])
		}
	}

	// ColUpdate.
	xc, rc := cols(x), cols(r)
	wantRR = make([]float64, q)
	for j := 0; j < q; j++ {
		for i := 0; i < n; i++ {
			xc[j][i] += float64(pc[j][i] * alpha[j])
			rc[j][i] -= float64(apc[j][i] * alpha[j])
		}
		wantRR[j] = refDot(rc[j], rc[j])
	}
	gx, gr, rr := x.Clone(), r.Clone(), make([]float64, q)
	fillHostile(rr, s, hostile)
	ColUpdate(gx, gr, p, ap, alpha, rr)
	checkLanes(t, what("ColUpdate X"), gx, x, xc)
	checkLanes(t, what("ColUpdate R"), gr, r, rc)
	if i := sameBits(rr, wantRR); i >= 0 {
		t.Fatalf("%s: rr[%d] = %v, want %v", what("ColUpdate"), i, rr[i], wantRR[i])
	}

	// ColDirection, with z a block of its own and z the residual block.
	zc := cols(r)
	for j := 0; j < q; j++ {
		for i := 0; i < n; i++ {
			pc[j][i] = zc[j][i] + float64(pc[j][i]*beta[j])
		}
	}
	gp := p.Clone()
	ColDirection(gp, r, beta)
	checkLanes(t, what("ColDirection"), gp, p, pc)
}

func TestColumnSweepsMatchPerColumnLoops(t *testing.T) {
	for _, n := range []int{0, 1, 7, 3000} {
		for q := 1; q <= 33; q++ {
			if n == 3000 && q > 5 && q != 17 && q < 31 {
				continue // the long blocks at a few widths only
			}
			for _, w := range laneWidths(q) {
				checkSweeps(t, n, q, w, uint64(1000*n+q), false)
				checkSweeps(t, n, q, w, uint64(1000*n+q)+7, true)
			}
		}
	}
}

func FuzzColumnSweeps(f *testing.F) {
	f.Add(uint16(7), uint8(3), uint64(1))
	f.Add(uint16(100), uint8(32), uint64(2))
	f.Add(uint16(0), uint8(1), uint64(3))
	f.Fuzz(func(t *testing.T, nRaw uint16, qRaw uint8, seed uint64) {
		n, q := int(nRaw)%400, 1+int(qRaw)%40
		for _, w := range laneWidths(q) {
			checkSweeps(t, n, q, w, seed, seed%2 == 1)
		}
	})
}

// TestCompactColumns: survivors land in the leading lanes of the
// narrower layout in order, zero padding follows, and the block is
// re-shaped over the same storage — for every way of narrowing,
// including none (in place inside a width) and 33 -> 32.
func TestCompactColumns(t *testing.T) {
	s := rng.New(5)
	for _, n := range []int{0, 1, 7, 200} {
		for _, w0 := range []int{1, 2, 4, 8, 16, 32, 33} {
			for trial := 0; trial < 6; trial++ {
				v := hostileBlock(n, w0, s, trial%2 == 1)
				var keep []int
				for j := 0; j < w0; j++ {
					if s.Intn(3) > 0 {
						keep = append(keep, j)
					}
				}
				w := len(keep) + s.Intn(w0-len(keep)+1)
				if w == 0 {
					w = 1
				}
				want := make([][]float64, len(keep))
				for d, j := range keep {
					want[d] = v.ColVector(j)
				}
				storage := v.Data
				v.CompactColumns(keep, w)
				if v.M != w || v.N != n || len(v.Data) != n*w || (n > 0 && &v.Data[0] != &storage[0]) {
					t.Fatalf("n=%d %d->%d: block is %dx%d over %d values", n, w0, w, v.N, v.M, len(v.Data))
				}
				for j := 0; j < w; j++ {
					ref := make([]float64, n) // +0 padding
					if j < len(keep) {
						ref = want[j]
					}
					if i := sameBits(v.ColVector(j), ref); i >= 0 {
						t.Fatalf("n=%d %d->%d keep=%v: lane %d differs at row %d", n, w0, w, keep, j, i)
					}
				}
			}
		}
	}
}

func TestCompactColumnsRejectsBadLists(t *testing.T) {
	for name, fn := range map[string]func(v *MultiVec){
		"descending":   func(v *MultiVec) { v.CompactColumns([]int{2, 1}, 4) },
		"repeated":     func(v *MultiVec) { v.CompactColumns([]int{1, 1}, 4) },
		"out of range": func(v *MultiVec) { v.CompactColumns([]int{4}, 4) },
		"too narrow":   func(v *MultiVec) { v.CompactColumns([]int{0, 1, 2}, 2) },
		"wider":        func(v *MultiVec) { v.CompactColumns([]int{0}, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(New(3, 4))
		}()
	}
}

func TestUnpackLanes(t *testing.T) {
	s := rng.New(9)
	for _, m := range []int{1, 4, 33} {
		v := hostileBlock(50, m, s, true)
		lanes := []int{m - 1, 0, m / 2}
		cols := [][]float64{make([]float64, 50), make([]float64, 50), make([]float64, 50)}
		if m == 1 {
			lanes, cols = lanes[:1], cols[:1]
		}
		UnpackLanes(cols, v, lanes)
		for k, l := range lanes {
			if i := sameBits(cols[k], v.ColVector(l)); i >= 0 {
				t.Fatalf("m=%d lane %d differs at row %d", m, l, i)
			}
		}
	}
}

// TestColumnSweepsIgnoreThreadCount: the sweeps are serial by
// contract, so a parallel pool must not change one bit.
func TestColumnSweepsIgnoreThreadCount(t *testing.T) {
	run := func() []float64 {
		s := rng.New(77)
		x, r, p, ap := hostileBlock(9000, 4, s, false), hostileBlock(9000, 4, s, false), hostileBlock(9000, 4, s, false), hostileBlock(9000, 4, s, false)
		out := make([]float64, 12)
		ColDots(out[0:3], p, ap)
		ColUpdate(x, r, p, ap, []float64{0.5, -2, 3}, out[3:6])
		ColResidual(ap, r, x, out[6:9], out[9:12])
		return append(out, ap.Data...)
	}
	serial := run()
	withThreads(t, 4, func() {
		if i := sameBits(run(), serial); i >= 0 {
			t.Fatalf("threads=4 differs from threads=1 at %d", i)
		}
	})
}
