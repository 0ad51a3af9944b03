package multivec

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/rng"
)

// The column sweeps against one column at a time: each lane must hold
// exactly what a lone contiguous vector gets from the textbook loop
// (y += a*x in row order, product rounded before the add, and refDot's
// eight-phase chunked sum) — with the AVX2 kernels and the Go loops, on every pool
// size.

// hostileBlock returns an n-by-w block of normal deviates with NaN,
// +-Inf, +-0 and a subnormal planted.
func hostileBlock(n, w int, s *rng.Stream, hostile bool) *MultiVec {
	v := &MultiVec{N: n, M: w, Data: make([]float64, n*w)}
	fillHostile(v.Data, s, hostile)
	return v
}

// refDot is a lane reduction's order spelled out apart from the
// kernels: the n rows in k = max(1, n/4096) equal chunks
// [n*c/k, n*(c+1)/k); in each, eight partials, row lo+i adding into
// partial i%8, combined as ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)); and
// the chunk sums added in chunk order.
func refDot(x, y []float64) float64 {
	n := len(x)
	k := max(1, n/4096)
	var s float64
	for c := 0; c < k; c++ {
		var p [8]float64
		lo, hi := n*c/k, n*(c+1)/k
		for i := lo; i < hi; i++ {
			p[(i-lo)%8] += float64(x[i] * y[i])
		}
		part := ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]))
		if c == 0 {
			s = part
		} else {
			s += part
		}
	}
	return s
}

// refGram is the Gram product's order: refDot's chunks, each summed in
// row order.
func refGram(x, y []float64) float64 {
	n := len(x)
	k := max(1, n/4096)
	var s float64
	for c := 0; c < k; c++ {
		var part float64
		for i := n * c / k; i < n*(c+1)/k; i++ {
			part += float64(x[i] * y[i])
		}
		if c == 0 {
			s = part
		} else {
			s += part
		}
	}
	return s
}

// checkLanes fails unless the columns of got equal want's contiguous
// columns.
func checkLanes(t *testing.T, what string, got *MultiVec, want [][]float64) {
	t.Helper()
	for j := range want {
		if i := sameBits(got.ColVector(j), want[j]); i >= 0 {
			t.Fatalf("%s: lane %d of %d differs at row %d: %v", what, j, got.M, i, got.At(i, j))
		}
	}
}

func checkSweeps(t *testing.T, n, q int, seed uint64, hostile bool) {
	t.Helper()
	s := rng.New(seed)
	block := func() *MultiVec { return hostileBlock(n, q, s, hostile) }
	x, r, p, ap := block(), block(), block(), block()
	alpha, beta, g, h := make([]float64, q), make([]float64, q), make([]float64, q), make([]float64, q)
	fillHostile(alpha, s, hostile)
	fillHostile(beta, s, hostile)
	fillHostile(g, s, hostile)
	fillHostile(h, s, hostile)
	cols := func(v *MultiVec) [][]float64 {
		c := make([][]float64, q)
		for j := range c {
			c[j] = v.ColVector(j)
		}
		return c
	}
	what := func(op string) string { return fmt.Sprintf("%s n=%d q=%d seed=%d", op, n, q, seed) }

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
		b, ax, dst := r.Clone(), ap.Clone(), x.Clone()
		switch alias {
		case "b":
			dst = b
		case "ax":
			dst = ax
		}
		bb, rr := make([]float64, q), make([]float64, q)
		fillHostile(bb, s, hostile)
		fillHostile(rr, s, hostile)
		ColResidual(dst, b, ax, bb, rr)
		checkLanes(t, what("ColResidual alias="+alias), dst, wantR)
		if i := sameBits(bb, wantBB); i >= 0 {
			t.Fatalf("%s: bb[%d] = %v, want %v", what("ColResidual"), i, bb[i], wantBB[i])
		}
		if i := sameBits(rr, wantRR); i >= 0 {
			t.Fatalf("%s: rr[%d] = %v, want %v", what("ColResidual"), i, rr[i], wantRR[i])
		}
	}

	// ColThreeTerm, with prev a block of its own and prev the q block.
	for _, alias := range []bool{false, true} {
		u, prev := x.Clone(), ap
		if alias {
			prev = p
		}
		uc, qc, prc := cols(u), cols(p), cols(prev)
		for j := 0; j < q; j++ {
			for i := 0; i < n; i++ {
				uc[j][i] = float64((uc[j][i]-float64(alpha[j]*qc[j][i]))*g[j]) - float64(h[j]*prc[j][i])
			}
		}
		ColThreeTerm(u, p, prev, alpha, g, h)
		checkLanes(t, what(fmt.Sprintf("ColThreeTerm alias=%v", alias)), u, uc)
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
	checkLanes(t, what("ColUpdate X"), gx, xc)
	checkLanes(t, what("ColUpdate R"), gr, rc)
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
	checkLanes(t, what("ColDirection"), gp, pc)
}

// TestColumnSweepsMatchPerColumnLoops runs every block width w in
// 1..33 — so every ymm group count and every w%4 tail — with the AVX2
// kernels on and off, on pools of 1, 2 and 4 threads: ColDirection and
// ColThreeTerm split their rows on the larger pools once a block has
// 2 x 8192 elements. Past 2 x 4096 rows the reductions sum two and more row
// chunks (9000 rows: two, 12500: three uneven ones), inline or, from
// n*w = 65536 on, over the pool; those long blocks run at a few widths,
// and at two, one of each kind, under -short.
func TestColumnSweepsMatchPerColumnLoops(t *testing.T) {
	long := [][2]int{ // n, w
		{9000, 32}, {12500, 3},
		{9000, 1}, {9000, 8}, {12500, 17},
	}
	if testing.Short() {
		long = long[:2]
	}
	for _, threads := range []int{1, 2, 4} {
		for _, on := range []bool{true, false} {
			sweep := func() {
				for _, n := range []int{0, 1, 7, 3000} {
					for w := 1; w <= 33; w++ {
						if n == 3000 && w > 5 && w != 17 && w < 31 {
							continue // the long blocks at a few widths only
						}
						checkSweeps(t, n, w, uint64(1000*n+w), false)
						checkSweeps(t, n, w, uint64(1000*n+w)+7, true)
					}
				}
				for _, c := range long {
					n, w := c[0], c[1]
					checkSweeps(t, n, w, uint64(1000*n+w), false)
					checkSweeps(t, n, w, uint64(1000*n+w)+7, true)
				}
			}
			withThreads(t, threads, func() {
				if on {
					sweep()
				} else {
					withoutSIMD(sweep)
				}
			})
		}
	}
}

// TestLaneReductionOrder holds ColDots, ColUpdate's sums of squares and
// both sums of ColResidual to refDot's order at every width 1..33, at
// row counts on both sides of the eight-row phase and of the 4096-row
// chunks, with the AVX2 kernels on and off, on one thread and four. The
// operands are normal deviates, terms of one scale with full mantissas,
// so a sum that takes even two of its terms in another order seldom
// keeps its bits; and a column whose row-order sum is 0 and whose
// eight-phase sum is 2, in every lane, pins the order itself, refDot's
// included.
func TestLaneReductionOrder(t *testing.T) {
	col := []float64{1, 1e16, 1, -1e16, 0, 0, 0, 0, 0}
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
	var rowOrder float64
	for _, v := range col {
		rowOrder += v
	}
	if rowOrder != 0 || refDot(col, ones) != 2 {
		t.Fatalf("row order gives %v and refDot %v, want 0 and 2", rowOrder, refDot(col, ones))
	}
	widths := make([]int, 33)
	for w := range widths {
		widths[w] = w + 1
	}
	if testing.Short() {
		widths = []int{1, 2, 4, 5, 8, 32, 33}
	}
	type config struct {
		threads int
		simd    bool
	}
	configs := []config{{1, true}, {1, false}, {4, true}, {4, false}}
	run := func(c config, fn func()) {
		withThreads(t, c.threads, func() {
			if c.simd {
				fn()
			} else {
				withoutSIMD(fn)
			}
		})
	}
	for _, w := range widths {
		x, y := New(len(col), w), New(len(col), w)
		for i, v := range col {
			for j := range w {
				x.Set(i, j, v)
				y.Set(i, j, ones[i])
			}
		}
		for _, c := range configs {
			dots := make([]float64, w)
			run(c, func() { ColDots(dots, x, y) })
			for j, d := range dots {
				if d != 2 {
					t.Fatalf("%+v w=%d: lane %d of the pinned column sums to %v, want 2", c, w, j, d)
				}
			}
		}
		for _, n := range []int{0, 1, 7, 8, 9, 4095, 8192, 8193, 18000} {
			want, ops := laneReductions(n, w, uint64(100*n+w))
			for _, c := range configs {
				var got [][]float64
				run(c, func() { got = ops() })
				for k, op := range []string{"ColDots", "ColResidual bb", "ColResidual rr", "ColUpdate"} {
					if j := sameBits(got[k], want[k]); j >= 0 {
						t.Fatalf("%+v %s n=%d w=%d: lane %d = %v, want %v", c, op, n, w, j, got[k][j], want[k][j])
					}
				}
			}
		}
	}
}

// laneReductions returns refDot's sums of ColDots, ColResidual and
// ColUpdate on n-by-w blocks of normal deviates, lane by lane, and
// a function that runs the three sweeps on copies of the blocks and
// returns their sums in the same order.
func laneReductions(n, w int, seed uint64) (want [][]float64, ops func() [][]float64) {
	s := rng.New(seed)
	block := func() *MultiVec {
		v := New(n, w)
		s.FillNormal(v.Data)
		return v
	}
	r, p, ap := block(), block(), block()
	alpha := make([]float64, w)
	s.FillNormal(alpha)
	want = [][]float64{make([]float64, w), make([]float64, w), make([]float64, w), make([]float64, w)}
	res, upd := make([]float64, n), make([]float64, n)
	for j := range w {
		rc, pc, apc := r.ColVector(j), p.ColVector(j), ap.ColVector(j)
		for i := range rc {
			res[i] = rc[i] - apc[i]
			upd[i] = rc[i] - float64(apc[i]*alpha[j])
		}
		want[0][j], want[1][j] = refDot(pc, apc), refDot(rc, rc)
		want[2][j], want[3][j] = refDot(res, res), refDot(upd, upd)
	}
	return want, func() [][]float64 {
		got := [][]float64{make([]float64, w), make([]float64, w), make([]float64, w), make([]float64, w)}
		ColDots(got[0], p, ap)
		ColResidual(New(n, w), r, ap, got[1], got[2])
		ColUpdate(New(n, w), r.Clone(), p, ap, alpha, got[3])
		return got
	}
}

func FuzzColumnSweeps(f *testing.F) {
	f.Add(uint16(7), uint8(3), uint64(1))
	f.Add(uint16(100), uint8(32), uint64(2))
	f.Add(uint16(0), uint8(1), uint64(3))
	// One to four lanes over row counts that leave a partial eight-row
	// group: the one-lane kernels' tails and the narrow widths' phases.
	f.Add(uint16(13), uint8(0), uint64(4))
	f.Add(uint16(399), uint8(1), uint64(5))
	f.Add(uint16(22), uint8(2), uint64(6))
	f.Add(uint16(5), uint8(3), uint64(7))
	f.Fuzz(func(t *testing.T, nRaw uint16, qRaw uint8, seed uint64) {
		n, q := int(nRaw)%400, 1+int(qRaw)%40
		checkSweeps(t, n, q, seed, seed%2 == 1)
	})
}

// TestColumnSweepsRejectOtherWidths: a sweep's scalar slices are as
// long as its blocks are wide, and its blocks share one shape — a
// narrower lane count or a mismatched block panics instead of sweeping
// part of a row.
func TestColumnSweepsRejectOtherWidths(t *testing.T) {
	s := rng.New(4)
	x, y, other := hostileBlock(10, 4, s, false), hostileBlock(10, 4, s, false), hostileBlock(10, 5, s, false)
	for name, fn := range map[string]func(){
		"ColDots narrower":      func() { ColDots(make([]float64, 3), x, y) },
		"ColDots wider":         func() { ColDots(make([]float64, 5), x, y) },
		"ColDots mismatched":    func() { ColDots(make([]float64, 4), x, other) },
		"ColDirection narrower": func() { ColDirection(x, y, make([]float64, 3)) },
		"ColUpdate narrower": func() {
			ColUpdate(x, y, x.Clone(), y.Clone(), make([]float64, 3), make([]float64, 3))
		},
		"ColThreeTerm narrower": func() {
			ColThreeTerm(x, y, x.Clone(), make([]float64, 3), make([]float64, 3), make([]float64, 3))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCompactColumns: survivors land in order in a block exactly as
// wide as their count, re-shaped over the same storage — for every way
// of narrowing, including none and 33 -> 32.
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
				want := make([][]float64, len(keep))
				for d, j := range keep {
					want[d] = v.ColVector(j)
				}
				storage := v.Data
				v.CompactColumns(keep)
				w := len(keep)
				if v.M != w || v.N != n || len(v.Data) != n*w || (n > 0 && w > 0 && &v.Data[0] != &storage[0]) {
					t.Fatalf("n=%d %d->%d: block is %dx%d over %d values", n, w0, w, v.N, v.M, len(v.Data))
				}
				for j := range want {
					if i := sameBits(v.ColVector(j), want[j]); i >= 0 {
						t.Fatalf("n=%d %d->%d keep=%v: lane %d differs at row %d", n, w0, w, keep, j, i)
					}
				}
			}
		}
	}
}

func TestCompactColumnsRejectsBadLists(t *testing.T) {
	for name, fn := range map[string]func(v *MultiVec){
		"descending":   func(v *MultiVec) { v.CompactColumns([]int{2, 1}) },
		"repeated":     func(v *MultiVec) { v.CompactColumns([]int{1, 1}) },
		"out of range": func(v *MultiVec) { v.CompactColumns([]int{4}) },
		"wider":        func(v *MultiVec) { v.CompactColumns([]int{0, 1, 2, 3, 4}) },
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

// TestUnpackLanes copies lanes out on pools of 1, 2 and 4 threads, at
// 50 rows and at 5000, where the rows split over the larger pools.
func TestUnpackLanes(t *testing.T) {
	s := rng.New(9)
	for _, threads := range []int{1, 2, 4} {
		withThreads(t, threads, func() {
			for _, n := range []int{50, 5000} {
				for _, m := range []int{1, 4, 33} {
					v := hostileBlock(n, m, s, true)
					lanes := []int{m - 1, 0, m / 2}
					cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
					if m == 1 {
						lanes, cols = lanes[:1], cols[:1]
					}
					UnpackLanes(cols, v, lanes)
					for k, l := range lanes {
						if i := sameBits(cols[k], v.ColVector(l)); i >= 0 {
							t.Fatalf("threads=%d n=%d m=%d lane %d differs at row %d", threads, n, m, l, i)
						}
					}
				}
			}
		})
	}
}

// TestColumnSweepsIgnoreThreadCount: the reductions — the lane sweeps'
// and block CG's Gram product — sum fixed row chunks in chunk order
// whichever thread runs a chunk, and the split sweeps and block updates
// (AddMul, SetMulAdd) are elementwise, so a parallel pool must not
// change one bit — at w = 4 and at the served width 32, at 9000 rows
// (two chunks) and 18000 (four, the served system), with the AVX2
// kernels and the Go loops, which must agree with each other too. At
// w = 32 every sweep streams enough to split over a pool of two or
// more, and the test checks that some op did; at w = 4 the blocks are
// too small to split, and the pooled runs check the inline path. The
// Gram product must be the per-chunk row-order sum refGram spells out,
// entry by entry.
func TestColumnSweepsIgnoreThreadCount(t *testing.T) {
	for _, n := range []int{9000, 18000} {
		for _, w := range []int{4, 32} {
			operands := func() (x, r, p, ap *MultiVec, a *blas.Dense) {
				s := rng.New(77)
				x, r, p, ap = hostileBlock(n, w, s, false), hostileBlock(n, w, s, false), hostileBlock(n, w, s, false), hostileBlock(n, w, s, false)
				a = blas.NewDense(w, w)
				s.FillNormal(a.Data)
				return x, r, p, ap, a
			}
			// Per-lane scalars: a fixed pattern, w long.
			lanes := func(v ...float64) []float64 {
				out := make([]float64, w)
				for j := range out {
					out[j] = v[j%len(v)]
				}
				return out
			}
			run := func() []float64 {
				x, r, p, ap, a := operands()
				g := blas.NewDense(w, w)
				GramInto(g, p, ap)
				out := make([]float64, 4*w)
				ColDots(out[0:w], p, ap)
				ColUpdate(x, r, p, ap, lanes(0.5, -2, 3), out[w:2*w])
				ColDirection(p, r, lanes(0.25, 1.5, -1))
				ColThreeTerm(x, p, r, lanes(0.5, -2, 3), lanes(1.25, -0.5, 2), lanes(0.75, 1, -3))
				ColResidual(ap, r, x, out[2*w:3*w], out[3*w:])
				x.AddMul(p, a)
				r.SetMulAdd(ap, x, a)
				return slices.Concat(g.Data, out, ap.Data, p.Data, x.Data, r.Data)
			}
			var serial []float64
			withThreads(t, 1, func() { serial = run() })
			_, _, p, ap, _ := operands()
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					if want, got := refGram(p.ColVector(i), ap.ColVector(j)), serial[i*w+j]; sameBits([]float64{got}, []float64{want}) >= 0 {
						t.Fatalf("n=%d w=%d: Gram (%d, %d) = %v, per-chunk sum %v", n, w, i, j, got, want)
					}
				}
			}
			for _, threads := range []int{1, 2, 4} {
				for _, on := range []bool{true, false} {
					withThreads(t, threads, func() {
						var got []float64
						split := dispatches(func() { got = run() })
						if threads > 1 && w == 32 && !split {
							t.Fatalf("n=%d w=%d threads=%d: no sweep split over the pool", n, w, threads)
						}
						if !on {
							withoutSIMD(func() { got = run() })
						}
						if i := sameBits(got, serial); i >= 0 {
							t.Fatalf("n=%d w=%d threads=%d simd=%v differs from threads=1 at %d", n, w, threads, on, i)
						}
					})
				}
			}
		}
	}
}

// TestColDirectionConcurrentCalls: concurrent solves each run their own
// split sweeps — ColDirection and ColThreeTerm, and the reductions with
// their chunk partials — sharing the spare records between them and the pool's
// workers; every result must be its serial one (run under -race).
func TestColDirectionConcurrentCalls(t *testing.T) {
	const n, w, callers = 9000, 16, 4
	beta := []float64{0.5, -1, 2, 0.25, 3, -0.5, 1.5, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	s := rng.New(31)
	ps, zs, want := make([]*MultiVec, callers), make([]*MultiVec, callers), make([][]float64, callers)
	for c := range ps {
		ps[c], zs[c] = hostileBlock(n, w, s, false), hostileBlock(n, w, s, false)
	}
	// sweeps runs ColDirection, ColThreeTerm, ColDots and ColUpdate on a
	// copy of caller c's blocks and returns everything they wrote.
	sweeps := func(c int) []float64 {
		p, z := ps[c].Clone(), zs[c].Clone()
		sums := make([]float64, 2*w)
		ColDirection(p, z, beta)
		ColThreeTerm(z, p, ps[c], beta, beta, beta)
		ColDots(sums[:w], p, z)
		ColUpdate(p, z, ps[c], zs[c], beta, sums[w:])
		return slices.Concat(sums, p.Data, z.Data)
	}
	withThreads(t, 1, func() {
		for c := range want {
			want[c] = sweeps(c)
		}
	})
	withThreads(t, 2, func() {
		var wg sync.WaitGroup
		for c := range ps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 5; k++ {
					if i := sameBits(sweeps(c), want[c]); i >= 0 {
						t.Errorf("caller %d: element %d differs from the serial pass", c, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
