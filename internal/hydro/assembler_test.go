package hydro

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/rng"
)

// oracle assembles R the way it was assembled before the Assembler
// existed, so the pruning is checked against the criterion it
// replaces: every pair of the quadratic scan inside the global
// SearchCutoff, kept by the literal xi < CutoffXi test, inserted into
// a Builder — far-field diagonal first, then the pairs in (I, J)
// order, which with the Builder's insertion-order sums fixes the order
// of every diagonal sum.
func oracle(sys *particles.System, opt Options) *bcrs.Matrix {
	opt = opt.WithDefaults()
	b := bcrs.NewBuilder(sys.N)
	b.AddDiagScaled(FarFieldCoefficients(sys, opt))
	for _, p := range neighbor.PairsBrute(sys.Pos, sys.Box, SearchCutoff(sys, opt)) {
		a1, a2 := sys.Radius[p.I], sys.Radius[p.J]
		xi := 2 * (p.R - a1 - a2) / (a1 + a2)
		if xi >= opt.CutoffXi || p.R <= 0 {
			continue
		}
		a := PairTensor(a1, a2, xi, p.D.Scale(1/p.R), opt)
		if a == (blas.Mat3{}) {
			continue
		}
		neg := a.ScaleM(-1)
		b.AddBlock(p.I, p.I, a)
		b.AddBlock(p.J, p.J, a)
		b.AddBlock(p.I, p.J, neg)
		b.AddBlock(p.J, p.I, neg)
	}
	return b.Build()
}

// image is a deep copy of a matrix's structure and value bits.
type image struct {
	rows []int
	cols []int
	bits []uint64
}

func imageOf(a *bcrs.Matrix) image {
	var im image
	for i := 0; i < a.NB(); i++ {
		lo, hi := a.RowBlocks(i)
		im.rows = append(im.rows, hi-lo)
		for k := lo; k < hi; k++ {
			im.cols = append(im.cols, a.BlockCol(k))
			for _, v := range a.BlockAt(k) {
				im.bits = append(im.bits, math.Float64bits(v))
			}
		}
	}
	return im
}

// diff describes the first difference between two images, or "".
func (im image) diff(o image) string {
	if len(im.rows) != len(o.rows) || len(im.cols) != len(o.cols) {
		return fmt.Sprintf("%d rows/%d blocks vs %d rows/%d blocks", len(im.rows), len(im.cols), len(o.rows), len(o.cols))
	}
	for i := range im.rows {
		if im.rows[i] != o.rows[i] {
			return fmt.Sprintf("row %d holds %d blocks vs %d", i, im.rows[i], o.rows[i])
		}
	}
	for k := range im.cols {
		if im.cols[k] != o.cols[k] {
			return fmt.Sprintf("block %d in column %d vs %d", k, im.cols[k], o.cols[k])
		}
	}
	for q := range im.bits {
		if im.bits[q] != o.bits[q] {
			return fmt.Sprintf("block %d (column %d) entry %d: %x vs %x", q/9, im.cols[q/9], q%9, im.bits[q], o.bits[q])
		}
	}
	return ""
}

// walk moves every particle by a uniform step of up to scale per axis.
func walk(pos []blas.Vec3, s *rng.Stream, scale float64) {
	for i := range pos {
		for c := range pos[i] {
			pos[i][c] += scale * (2*s.Float64() - 1)
		}
	}
}

// TestAssemblerMatchesOracleBitwise is the assembly contract: along a
// random walk, at 1 and 4 threads, the matrix from a long-lived
// assembler (whose list is by turns reused and rebuilt), the matrix
// from a fresh one, and the Builder oracle fed from the unpruned pair
// scan are the same bits — for equal spheres, for E. coli radii at the
// benchmark's N = 1000, phi = 0.4 (a box under three cutoffs wide,
// searched by the quadratic scan) and for boxes wide enough for the
// cell search.
func TestAssemblerMatchesOracleBitwise(t *testing.T) {
	saved := parallel.Threads()
	t.Cleanup(func() { parallel.SetThreads(saved) })
	for _, tc := range []struct {
		name  string
		popt  particles.Options
		opt   Options
		cells bool
		steps int
	}{
		{"monodisperse", particles.Options{N: 60, Phi: 0.45, Seed: 3, MonodisperseRadius: 2}, Options{}, false, 12},
		{"monodisperse cells", particles.Options{N: 500, Phi: 0.3, Seed: 4, MonodisperseRadius: 2}, Options{}, true, 12},
		{"ecoli benchmark packing", particles.Options{N: 1000, Phi: 0.4, Seed: 1}, Options{}, false, 6},
		{"ecoli cells", particles.Options{N: 2000, Phi: 0.25, Seed: 5}, Options{CutoffXi: 0.6}, true, 4},
		{"ecoli wide cutoff", particles.Options{N: 200, Phi: 0.35, Seed: 6}, Options{CutoffXi: 2.5}, false, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.popt.N >= 1000 {
				t.Skip("the quadratic oracle at this size is slow under -race")
			}
			sys, err := particles.New(tc.popt)
			if err != nil {
				t.Fatal(err)
			}
			opt := tc.opt
			opt.Phi = tc.popt.Phi
			cutoff := SearchCutoff(sys, opt)
			if cells := sys.Box/(cutoff*(1+skinFraction)) >= 3; cells != tc.cells {
				t.Fatalf("box %v over cutoff %v: cell search %v, want %v", sys.Box, cutoff, cells, tc.cells)
			}
			for _, threads := range []int{1, 4} {
				parallel.SetThreads(threads)
				cur := sys.Clone()
				s := rng.New(uint64(threads))
				long := NewAssembler(cur, opt)
				for step := 0; step < tc.steps; step++ {
					want := imageOf(oracle(cur, opt))
					if d := imageOf(long.Build(cur.Pos)).diff(want); d != "" {
						rb, ru := long.list.Rebuilds, long.list.Reuses
						t.Fatalf("threads %d step %d: long-lived assembler (%d rebuilds, %d reuses) vs oracle: %s", threads, step, rb, ru, d)
					}
					if d := imageOf(Build(cur, opt)).diff(want); d != "" {
						t.Fatalf("threads %d step %d: fresh assembler vs oracle: %s", threads, step, d)
					}
					// A fifth of the skin per step: a particle passes
					// skin/2 every few steps.
					walk(cur.Pos, s, 0.2*skinFraction*cutoff)
				}
				if rb, ru := long.list.Rebuilds, long.list.Reuses; rb < 2 || ru < 2 {
					t.Fatalf("walk exercised %d rebuilds and %d reuses; want both", rb, ru)
				}
			}
		})
	}
}

// TestAssemblerSumsInNeighborOrder pins the summation order directly:
// the diagonal block is the far-field term plus the pair tensors in
// ascending neighbor index, which three neighbors with tensors of very
// different size make distinguishable from any other order.
func TestAssemblerSumsInNeighborOrder(t *testing.T) {
	sys := &particles.System{
		N: 4, Box: 100, Phi: 0.1,
		Radius: []float64{1, 1, 1, 1},
		// Particle 2 has neighbors 0, 1 and 3 at gaps 1e-3, 0.7, 0.2.
		Pos: []blas.Vec3{{10, 10, 10 - 2.001}, {10, 10 + 2.7, 10}, {10, 10, 10}, {10 + 2.2, 10, 10}},
	}
	opt := Options{Phi: 0.1}.WithDefaults()
	a := Build(sys, opt)
	lo, hi := a.RowBlocks(2)
	if hi-lo != 4 {
		t.Fatalf("row 2 holds %d blocks, want 4", hi-lo)
	}
	want := blas.Ident3().ScaleM(FarFieldCoefficients(sys, opt)[2])
	for _, j := range []int{0, 1, 3} {
		d := neighbor.MinImage(sys.Pos[j].Sub(sys.Pos[2]), sys.Box)
		r := d.Norm()
		ten := PairTensor(1, 1, neighbor.Gap(r, 1, 1), d.Scale(1/r), opt)
		for q := range want {
			want[q] += ten[q]
		}
	}
	for k := lo; k < hi; k++ {
		if a.BlockCol(k) == 2 && a.BlockAt(k) != want {
			t.Fatalf("diagonal block %v, want %v", a.BlockAt(k), want)
		}
	}
}

// TestAssemblerReturnsImmutableMatrices: a matrix handed out by Build
// is the caller's — fifty later builds on the same assembler, through
// list reuses and rebuilds, leave every bit of it alone.
func TestAssemblerReturnsImmutableMatrices(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 300, Phi: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Phi: 0.4}
	as := NewAssembler(sys, opt)
	first := as.Build(sys.Pos)
	want := imageOf(first)
	s := rng.New(7)
	for i := 0; i < 50; i++ {
		walk(sys.Pos, s, 0.1*skinFraction*SearchCutoff(sys, opt))
		as.Build(sys.Pos)
	}
	if rb, ru := as.list.Rebuilds, as.list.Reuses; rb < 2 || ru < 2 {
		t.Fatalf("later builds exercised %d rebuilds and %d reuses; want both", rb, ru)
	}
	if d := imageOf(first).diff(want); d != "" {
		t.Fatalf("first matrix changed under later builds: %s", d)
	}
	if err := first.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAssemblersShareNothing runs two assemblers over one system from
// two goroutines; under -race this is what shows that a chain's
// workspace is its own (the radii are shared, and only read).
func TestAssemblersShareNothing(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 200, Phi: 0.4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Phi: 0.4}
	want := imageOf(oracle(sys, opt))
	done := make(chan string, 2) // one verdict per goroutine
	for g := 0; g < 2; g++ {
		go func() {
			as := NewAssembler(sys, opt)
			verdict := ""
			for i := 0; i < 20 && verdict == ""; i++ {
				verdict = imageOf(as.Build(sys.Pos)).diff(want)
			}
			done <- verdict
		}()
	}
	for g := 0; g < 2; g++ {
		if d := <-done; d != "" {
			t.Fatalf("concurrent assemblers: %s", d)
		}
	}
}

func TestAssemblerRejectsWrongCount(t *testing.T) {
	sys, opt := buildSmall(t, 30, 0.3, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for positions of another system")
		}
	}()
	NewAssembler(sys, opt).Build(sys.Pos[:20])
}

// tensor is the assembler's six-entry pair tensor as a blas.Mat3.
func (c *pairCoef) tensor(xi float64, d blas.Vec3, minXi float64) (m blas.Mat3) {
	var a sym3
	c.axial(&a, xi, &d, minXi)
	return blas.Mat3{a[0], a[1], a[2], a[1], a[3], a[4], a[2], a[4], a[5]}
}

// TestPairCoefMatchesPairTensorBitwise: the constants the assembler
// caches per listed pair, fed one logarithm, give PairTensor's bits —
// over radius ratios on both sides of 1 and at it, gaps below the
// floor, deep in the lubrication range, straddling the cutoff and past
// it, and a cutoff other than the default.
func TestPairCoefMatchesPairTensorBitwise(t *testing.T) {
	radii := []float64{0.3, 1, 1.7, 2.5, 37.25, 115}
	d := blas.Vec3{2, -3, 6}.Scale(1.0 / 7)
	for _, opt := range []Options{{}, {CutoffXi: 0.6, Viscosity: 0.89, MinXi: 1e-3}} {
		opt = opt.WithDefaults()
		xc := opt.CutoffXi
		gaps := []float64{-0.5, 0, opt.MinXi / 2, opt.MinXi, 3e-4, 1e-2, 0.1, 0.5,
			math.Nextafter(xc, 0), xc, math.Nextafter(xc, 2*xc), 0.999 * xc, 1.5 * xc}
		for _, a1 := range radii {
			for _, a2 := range radii {
				c := newPairCoef(a1, a2, opt)
				for _, xi := range gaps {
					got, want := c.tensor(xi, d, opt.MinXi), PairTensor(a1, a2, xi, d, opt)
					for q := range want {
						if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
							t.Fatalf("a1 %v a2 %v xi %v entry %d: cached %x, PairTensor %x", a1, a2, xi, q,
								math.Float64bits(got[q]), math.Float64bits(want[q]))
						}
					}
				}
			}
		}
	}
}

// TestAssemblerHandBackMatchesOracleBitwise walks a polydisperse system
// for 300 steps large enough against the skin that the list rebuilds
// every few of them and pairs cross the cutoff all the time, so that
// consecutive matrices differ in size. Most matrices are handed back,
// so nearly every build writes into arrays that held another matrix,
// with a pair cache filled under an older list; each must still be the
// bits of a fresh assembler and of the Builder oracle. Every seventh is
// kept, and must be intact at the end.
func TestAssemblerHandBackMatchesOracleBitwise(t *testing.T) {
	saved := parallel.Threads()
	t.Cleanup(func() { parallel.SetThreads(saved) })
	steps := 300
	if testing.Short() {
		steps = 60 // the quadratic oracle is slow under -race
	}
	sys, err := particles.New(particles.Options{N: 150, Phi: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Phi: 0.4}
	cutoff := SearchCutoff(sys, opt)
	for _, threads := range []int{1, 4} {
		parallel.SetThreads(threads)
		cur := sys.Clone()
		s := rng.New(uint64(threads))
		long := NewAssembler(cur, opt)
		var kept []*bcrs.Matrix
		var keptWant []image
		sizes := map[int]bool{}
		for step := 0; step < steps; step++ {
			a := long.Build(cur.Pos)
			got, want := imageOf(a), imageOf(oracle(cur, opt))
			if d := got.diff(want); d != "" {
				rb, ru := long.list.Rebuilds, long.list.Reuses
				t.Fatalf("threads %d step %d (%d rebuilds, %d reuses): recycling assembler vs oracle: %s", threads, step, rb, ru, d)
			}
			if d := imageOf(Build(cur, opt)).diff(want); d != "" {
				t.Fatalf("threads %d step %d: fresh assembler vs oracle: %s", threads, step, d)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("threads %d step %d: %v", threads, step, err)
			}
			sizes[a.NNZB()] = true
			if step%7 == 3 {
				kept, keptWant = append(kept, a), append(keptWant, want)
			} else {
				long.Recycle(a)
			}
			walk(cur.Pos, s, 0.2*skinFraction*cutoff)
		}
		rb, ru := long.list.Rebuilds, long.list.Reuses
		if rb < steps/20 || ru < steps/20 || len(sizes) < steps/20 {
			t.Fatalf("walk exercised %d rebuilds, %d reuses and %d matrix sizes; want many of each", rb, ru, len(sizes))
		}
		for i, a := range kept {
			if d := imageOf(a).diff(keptWant[i]); d != "" {
				t.Fatalf("threads %d: kept matrix %d changed under later builds: %s", threads, i, d)
			}
		}
	}
}

// TestRecycleContract: a warmed Build that is handed its predecessor
// allocates the matrix header and nothing else, and Recycle ignores
// everything but the matrix built last.
func TestRecycleContract(t *testing.T) {
	sys, opt := buildSmall(t, 200, 0.4, 12)
	as, other := NewAssembler(sys, opt), NewAssembler(sys, opt)
	as.Recycle(as.Build(sys.Pos))
	if n := testing.AllocsPerRun(20, func() { as.Recycle(as.Build(sys.Pos)) }); n != 1 {
		t.Fatalf("a warmed Build + Recycle cycle allocated %v times, want 1 (the header)", n)
	}

	// Every build from here on is at new positions, so a matrix written
	// over shows.
	s := rng.New(12)
	live := map[*bcrs.Matrix]image{}
	build := func() *bcrs.Matrix {
		walk(sys.Pos, s, 0.02*SearchCutoff(sys, opt))
		m := as.Build(sys.Pos)
		live[m] = imageOf(m)
		return m
	}
	check := func(when string) {
		t.Helper()
		for m, want := range live {
			if d := imageOf(m).diff(want); d != "" {
				t.Fatalf("%s: a matrix still held was written over: %s", when, d)
			}
		}
	}
	a := build()
	build() // a is no longer the matrix built last
	as.Recycle(a)
	as.Recycle(nil)
	as.Recycle(other.Build(sys.Pos))
	as.Recycle(bcrs.NewBuilder(sys.N).Build())
	c := build()
	check("after hand-backs that are not the assembler's to take")
	delete(live, c)
	as.Recycle(c)
	as.Recycle(c)
	d := build() // in c's arrays
	build()      // d is out: not in them again
	check("after a double hand-back")
	as.Recycle(d)
	build()
	check("after handing back the matrix before last")
}

// TestNonFinitePositionMarksItsRow: a particle at a NaN or infinite
// coordinate is in no pair, so only its diagonal block can say that the
// matrix is not one of a configuration — and the spectrum bracket reads
// it, whichever row it is. The next build at finite positions, into the
// same arrays, is clean again.
func TestNonFinitePositionMarksItsRow(t *testing.T) {
	sys, opt := buildSmall(t, 60, 0.4, 9)
	as := NewAssembler(sys, opt)
	clean := imageOf(as.Build(sys.Pos))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 31, 59} {
			pos := append([]blas.Vec3(nil), sys.Pos...)
			pos[at][2] = v
			m := as.Build(pos)
			if lo, hi := m.GershgorinInterval(); !math.IsNaN(lo) || !math.IsNaN(hi) {
				t.Fatalf("particle %d at %v: bracket [%v, %v]", at, v, lo, hi)
			}
			as.Recycle(m)
			if d := imageOf(as.Build(sys.Pos)).diff(clean); d != "" {
				t.Fatalf("after particle %d at %v: %s", at, v, d)
			}
		}
	}
}
