package hydro

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/blas"
	"repro/internal/cpufeat"
	"repro/internal/particles"
	"repro/internal/rng"
)

// withAVX2 runs fn with the candidate pass limited to the Go loop when
// simd is false (the way the bcrs tests clear the switch).
func withAVX2(simd bool, fn func()) {
	defer func(a bool) { cpufeat.AVX2 = a }(cpufeat.AVX2)
	cpufeat.AVX2 = cpufeat.AVX2 && simd
	fn()
}

// candCase is a hand-made candidate list: the pairs, the wrapped
// positions they index, the radii and the options.
type candCase struct {
	name    string
	box     float64
	radius  []float64
	wrapped []blas.Vec3
	cand    [][2]int32
	opt     Options
	// clean: no kept lane may fail a guard of the kernel, so every
	// whole group runs on AVX2.
	clean bool
}

// pairsAt builds a case of len(gaps) isolated pairs, pair p two
// spheres of radii 1 and ratio^u (u uniform) along a random direction,
// their surfaces gaps[p]*(a1+a2)/2 apart.
func pairsAt(name string, s *rng.Stream, gaps []float64, ratio float64, opt Options) candCase {
	c := candCase{name: name, box: 40 * float64(len(gaps)+1), opt: opt.WithDefaults(), clean: true}
	for p, xi := range gaps {
		a1, a2 := 1.0, math.Pow(ratio, s.Float64())
		d := blas.Vec3{2*s.Float64() - 1, 2*s.Float64() - 1, 2*s.Float64() - 1}
		d = d.Scale(1 / d.Norm())
		r := (a1 + a2) * (1 + xi/2)
		o := blas.Vec3{float64(40*p + 20), 20 + 5*s.Float64(), 20 + 5*s.Float64()}
		c.radius = append(c.radius, a1, a2)
		c.wrapped = append(c.wrapped, o, o.Add(d.Scale(r)))
		c.cand = append(c.cand, [2]int32{int32(2 * p), int32(2*p + 1)})
	}
	return c
}

// randomGaps returns n gaps, most inside the default cutoff and some
// beyond it, a few below the default MinXi.
func randomGaps(s *rng.Stream, n int) []float64 {
	gaps := make([]float64, n)
	for i := range gaps {
		switch s.Intn(8) {
		case 0:
			gaps[i] = 1 + s.Float64() // beyond the cutoff
		case 1:
			gaps[i] = 1e-5 * s.Float64() // below MinXi
		default:
			gaps[i] = s.Float64()
		}
	}
	return gaps
}

// hsqrt2MinXi returns a MinXi whose reciprocal is HSqrt2 * 2^32 to the
// bit, or 0 if rounding never gives it. HSqrt2 is the one frexp
// mantissa on which archLog's `f1 <= HSqrt2` holds and `<` does not, and
// 2^32 the one power of two, of all 2046, at which the two reductions
// it chooses between round the logarithm differently.
func hsqrt2MinXi() float64 {
	want := math.Ldexp(math.Float64frombits(0x3FE6A09E667F3BCD), 32)
	m := 1 / want
	for range 64 {
		if 1/m == want {
			return m
		}
		if 1/m > want {
			m = math.Nextafter(m, 1)
		} else {
			m = math.Nextafter(m, 0)
		}
	}
	return 0
}

// candCases is every case TestCandidatePassSIMDMatchesGo runs.
func candCases(t *testing.T) []candCase {
	s := rng.New(41)
	var cases []candCase
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 200} {
		cases = append(cases, pairsAt(fmt.Sprintf("%d candidates", n), s, randomGaps(s, n), 3, Options{}))
	}
	far := make([]float64, 64)
	for i := range far {
		far[i] = 1.0001 + s.Float64()
	}
	cases = append(cases, pairsAt("none kept", s, far, 10, Options{}))

	// NaN and infinite coordinates, one per pair of a block that is
	// otherwise inside the cutoff.
	bad := pairsAt("non-finite positions", s, randomGaps(s, 24), 2, Options{})
	for p, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for c := range 3 {
			bad.wrapped[2*(3*p+c)+p%2][c] = v
		}
	}
	cases = append(cases, bad)

	// Xi at the cutoff and an ulp either side: the cutoff set to one
	// pair's gap as the assembler computes it.
	at := pairsAt("cutoff", s, []float64{0.4, 0.4, 0.4, 0.4}, 2, Options{})
	xi := func(c candCase, k int) float64 {
		wa, wb := c.wrapped[c.cand[k][0]], c.wrapped[c.cand[k][1]]
		x, y, z := wb[0]-wa[0], wb[1]-wa[1], wb[2]-wa[2]
		return 2 * (math.Sqrt(x*x+y*y+z*z) - c.radius[c.cand[k][0]] - c.radius[c.cand[k][1]]) /
			(c.radius[c.cand[k][0]] + c.radius[c.cand[k][1]])
	}
	for _, cut := range []float64{math.Nextafter(xi(at, 0), 0), xi(at, 0), math.Nextafter(xi(at, 0), 1)} {
		c := at
		c.name, c.opt = fmt.Sprintf("cutoff %x", math.Float64bits(cut)), Options{CutoffXi: cut}.WithDefaults()
		cases = append(cases, c)
	}

	// Gaps below MinXi, touching and overlapping: xi is MinXi. The last
	// pair's centres coincide.
	cases = append(cases, pairsAt("below MinXi", s, []float64{1e-6, 0, -0.1, -1e-9, 5e-5, 1e-4, 2e-4, -2}, 4, Options{}))

	// A pair inside the cutoff whose shifted resistance functions round
	// to zero, four times in a group.
	zero, ok := zeroTensorPair(s)
	if !ok {
		t.Fatal("no pair inside the cutoff has a tensor that rounds to zero")
	}
	for p := 1; p < 4; p++ {
		zero.radius = append(zero.radius, zero.radius[:2]...)
		zero.wrapped = append(zero.wrapped, zero.wrapped[0].Add(blas.Vec3{0, 0, float64(10 * p)}),
			zero.wrapped[1].Add(blas.Vec3{0, 0, float64(10 * p)}))
		zero.cand = append(zero.cand, [2]int32{int32(2 * p), int32(2*p + 1)})
	}
	cases = append(cases, zero)

	// Periodic images: displacements past box/2 either way, and at
	// +box/2 and -box/2 exactly, which stay as they are.
	img := candCase{name: "periodic images", box: 8, opt: Options{}.WithDefaults(), clean: true}
	for p, ends := range [][2]blas.Vec3{
		{{2, 1, 1}, {6, 2.5, 1.8}}, {{6, 2.5, 1.8}, {2, 1, 1}}, {{0.3, 4, 4}, {7.9, 5.5, 3.2}},
		{{7.9, 5.5, 3.2}, {0.3, 4, 4}}, {{4, 0.1, 7.5}, {5.2, 7.6, 0.4}}, {{1, 2, 3}, {2.5, 3.1, 3.3}},
		{{3, 3, 0}, {3.8, 1.9, 4}}, {{3, 3, 4}, {3.8, 1.9, 0}},
	} {
		img.radius = append(img.radius, 2.2, 2.1)
		img.wrapped = append(img.wrapped, ends[0], ends[1])
		img.cand = append(img.cand, [2]int32{int32(2 * p), int32(2*p + 1)})
	}
	cases = append(cases, img)

	m := hsqrt2MinXi()
	if m == 0 {
		t.Fatal("no MinXi has 1/MinXi = HSqrt2 * 2^32")
	}
	touching := make([]float64, 32)
	for i := range touching {
		touching[i] = 3e-10*s.Float64() - 1e-10 // below MinXi, some overlapping
	}
	for _, minXi := range []float64{m, math.Nextafter(m, 0), math.Nextafter(m, 1)} {
		c := pairsAt(fmt.Sprintf("1/MinXi %x", math.Float64bits(1/minXi)), s, touching, 10, Options{MinXi: minXi})
		// Along z, the xx and yy entries are YA alone, not swamped by
		// the squeeze term: a rounding of the logarithm shows.
		for p := range touching {
			a, b := c.wrapped[2*p], c.wrapped[2*p+1]
			c.wrapped[2*p+1] = a.Add(blas.Vec3{0, 0, b.Sub(a).Norm()})
		}
		cases = append(cases, c)
	}

	// Hostile options: 1/xi negative, infinite or subnormal for a kept pair.
	for _, opt := range []Options{{MinXi: -1e-3}, {MinXi: 5e-324}, {MinXi: math.MaxFloat64}, {MinXi: math.NaN()},
		{CutoffXi: 1e300}, {CutoffXi: 5e-324}} {
		for _, gaps := range [][]float64{{-0.5, 1e-9, 0, 0.1, 0.5, 2, -1e-3, 0.9}, {1e-9, 1e-5, 0.1, 0.3, 0.5, 0.7, 0.9, 2}} {
			c := pairsAt(fmt.Sprintf("options %+v gaps %v", opt, gaps[:2]), s, gaps, 2, opt)
			c.clean = false
			cases = append(cases, c)
		}
	}
	return cases
}

// zeroTensorPair returns the case of one pair, along x, with the cutoff
// an ulp above its gap: inside it, but with shifted resistance functions
// that round to zero, and so a tensor that does. It reports false if the
// search finds none.
func zeroTensorPair(s *rng.Stream) (candCase, bool) {
	for range 1000 {
		a1, a2 := 1+3*s.Float64(), 1+3*s.Float64()
		x := (a1 + a2) * (1.025 + s.Float64())
		r := math.Sqrt(x * x)
		xi := 2 * (r - a1 - a2) / (a1 + a2)
		opt := Options{CutoffXi: math.Nextafter(xi, 3)}.WithDefaults()
		var t sym3
		pc := newPairCoef(a1, a2, opt)
		pc.axial(&t, xi, &blas.Vec3{1 / r * x, 0, 0}, opt.MinXi)
		if t.zero() {
			return candCase{name: "zero tensor", box: 100, opt: opt, clean: true, radius: []float64{a1, a2},
				wrapped: []blas.Vec3{{0, 5, 5}, {x, 5, 5}}, cand: [][2]int32{{0, 1}}}, true
		}
	}
	return candCase{}, false
}

// runPass runs the candidate pass over the case in three uneven ranges
// (so that some start off a slot group), with AVX2 or without it, on
// assembler state filled with NaN beforehand, and returns its tensors and
// keep flags.
func (c candCase) runPass(as *Assembler, simd bool) ([]sym3, []uint8) {
	n := len(c.cand)
	for k := range as.tens {
		for q := range as.tens[k] {
			as.tens[k][q] = math.NaN()
		}
		as.kept[k] = 7
	}
	withAVX2(simd, func() {
		cut := []int{0, min(n, 5), min(n, 70), n}
		for i := range 3 {
			as.tensors(cut[i], cut[i+1])
		}
	})
	return slices.Clone(as.tens[:n]), slices.Clone(as.kept[:n])
}

// TestCandidatePassSIMDMatchesGo: the candidate pass on AVX2 gives the
// Go loop's tensor and keep flag for every candidate, bit for bit — at
// every lane and block tail, over a block with no kept pair, at NaN and
// infinite positions, at the cutoff and an ulp either side, below MinXi,
// at the mantissa where archLog's comparison is `<=`, and under options
// whose 1/xi leaves archLog's main path. On a clean case every whole
// group must also have run on AVX2, not fallen back to the Go loop.
func TestCandidatePassSIMDMatchesGo(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2: the Go loop is the only path")
	}
	for _, c := range candCases(t) {
		t.Run(c.name, func(t *testing.T) {
			sys := &particles.System{N: len(c.radius), Box: c.box, Radius: c.radius, Pos: c.wrapped}
			as := newAssembler(sys, c.opt, FarFieldCoefficients(sys, c.opt))
			as.cand, as.wrapped = c.cand, c.wrapped
			as.index()
			n := len(c.cand)
			as.tens, as.kept = make([]sym3, n+1), make([]uint8, n+1)
			// The Go loop first: it computes the constants of every kept pair.
			wantT, wantK := c.runPass(as, false)
			gotT, gotK := c.runPass(as, true)
			kept := 0
			for k := range n {
				kept += int(wantK[k])
				if gotK[k] != wantK[k] {
					t.Fatalf("candidate %d: kept %d on AVX2, %d in Go", k, gotK[k], wantK[k])
				}
				for q := range wantT[k] {
					if g, w := math.Float64bits(gotT[k][q]), math.Float64bits(wantT[k][q]); g != w {
						t.Fatalf("candidate %d entry %d: %x on AVX2, %x in Go", k, q, g, w)
					}
				}
			}
			var d candScratch
			for b := 0; b < n; b += candBlock {
				v := min(candBlock, n-b) &^ 3
				if v > 0 && !as.candSIMD(&d, b, v) && c.clean {
					t.Fatalf("block at %d fell back to the Go loop", b)
				}
			}
			t.Logf("%d candidates, %d kept", n, kept)
		})
	}
}

// TestFillSIMDMatchesGo: the row fill on AVX2 writes the Go loops'
// matrix, bit for bit — every block, column and row pointer — on the
// benchmark's packing, on axis-aligned pairs (tensor entries that are
// exactly +0), with a row NaN-marked, and with a negative viscosity,
// whose far-field zeros are -0.
func TestFillSIMDMatchesGo(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2: the Go loop is the only path")
	}
	packing, err := particles.New(particles.Options{N: 300, Phi: 0.45, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	aligned := &particles.System{N: 4, Box: 100, Phi: 0.1, Radius: []float64{1, 1, 1, 1},
		Pos: []blas.Vec3{{10, 10, 10 - 2.001}, {10, 10 + 2.7, 10}, {10, 10, 10}, {10 + 2.2, 10, 10}}}
	nonFinite, _, _ := fuzzSystem(rng.New(41), 40, 3, 0.4, quirkNonFinite|quirkTouching|quirkCoincide, 0)
	for _, c := range []struct {
		name string
		sys  *particles.System
		opt  Options
	}{
		{"packing", packing, Options{Phi: 0.45}},
		{"axis-aligned", aligned, Options{Phi: 0.1}},
		{"non-finite", nonFinite, Options{Phi: 0.4}},
		{"negative viscosity", packing, Options{Phi: 0.45, Viscosity: -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want image
			withAVX2(false, func() { want = imageOf(Build(c.sys, c.opt)) })
			if d := imageOf(Build(c.sys, c.opt)).diff(want); d != "" {
				t.Fatalf("AVX2 vs Go: %s", d)
			}
		})
	}
}
