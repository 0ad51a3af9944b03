package hydro

import (
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/rng"
)

// Quirks a fuzzed system can carry, one bit each.
const (
	quirkOutside   = 1 << iota // positions whole boxes outside the box
	quirkFaces                 // coordinates within an ulp of the faces
	quirkCoincide              // two centres at one point (R = 0)
	quirkTouching              // a gap below MinXi
	quirkCutoff                // two pairs at the cutoff reach ± 1 ulp
	quirkNonFinite             // one coordinate NaN, +Inf or -Inf
	quirkThreads               // four threads instead of one
	quirkWideCut               // CutoffXi 2.5 instead of the default
)

// Hostile options a fuzzed system can run under, one bit each; a later
// bit overrides an earlier one.
const (
	hostileSubnormalMinXi = 1 << iota // MinXi the smallest subnormal
	hostileNegativeMinXi              // MinXi -1e-3: 1/xi negative for an overlap
	hostileZeroCutoff                 // CutoffXi 0, which WithDefaults makes 1
	hostileHugeCutoff                 // CutoffXi 1e300: every candidate kept, xaCut -Inf
)

// fuzzSystem builds n spheres with radii spread by up to ratio in a box
// sized for occupancy phi, placed uniformly (overlaps included) and then
// bent by quirks. It returns the particle given a non-finite coordinate,
// or -1.
func fuzzSystem(s *rng.Stream, n int, ratio, phi float64, quirks, hostile uint8) (*particles.System, Options, int) {
	sys := &particles.System{N: n, Phi: phi, Radius: make([]float64, n), Pos: make([]blas.Vec3, n)}
	var vol float64
	for i := range sys.Radius {
		a := math.Pow(ratio, s.Float64())
		sys.Radius[i] = a
		vol += 4.0 / 3.0 * math.Pi * a * a * a
	}
	box := math.Cbrt(vol / phi)
	sys.Box = box
	for i := range sys.Pos {
		sys.Pos[i] = blas.Vec3{s.Float64() * box, s.Float64() * box, s.Float64() * box}
	}
	opt := Options{Phi: phi}
	if quirks&quirkWideCut != 0 {
		opt.CutoffXi = 2.5
	}
	if hostile&hostileSubnormalMinXi != 0 {
		opt.MinXi = 5e-324
	}
	if hostile&hostileNegativeMinXi != 0 {
		opt.MinXi = -1e-3
	}
	if hostile&hostileZeroCutoff != 0 {
		opt.CutoffXi = 0
	}
	if hostile&hostileHugeCutoff != 0 {
		opt.CutoffXi = 1e300
	}
	opt = opt.WithDefaults()
	// at puts particle j at x-offset r from particle 0, then nudges that
	// coordinate by ulps (negative: down).
	at := func(j int, r float64, ulps int) {
		sys.Pos[j] = sys.Pos[0].Add(blas.Vec3{r, 0, 0})
		for ; ulps < 0; ulps++ {
			sys.Pos[j][0] = math.Nextafter(sys.Pos[j][0], math.Inf(-1))
		}
		for ; ulps > 0; ulps-- {
			sys.Pos[j][0] = math.Nextafter(sys.Pos[j][0], math.Inf(1))
		}
	}
	reach := func(j int) float64 { return (sys.Radius[0] + sys.Radius[j]) * (1 + opt.CutoffXi/2) }
	if quirks&quirkCoincide != 0 && n > 1 {
		at(1, 0, 0)
	}
	if quirks&quirkTouching != 0 && n > 2 {
		sum := sys.Radius[0] + sys.Radius[2]
		at(2, sum+0.25*opt.MinXi*sum, 0)
	}
	if quirks&quirkCutoff != 0 && n > 4 {
		at(3, reach(3), -1)  // an ulp inside the reach
		at(4, -reach(4), -1) // an ulp outside it, on the other side
	}
	if quirks&quirkFaces != 0 {
		faces := []float64{0, math.Copysign(0, -1), math.Nextafter(0, -1), math.Nextafter(box, 0), box, math.Nextafter(box, 2*box)}
		for i := range sys.Pos {
			if s.Intn(3) == 0 {
				sys.Pos[i][s.Intn(3)] = faces[s.Intn(len(faces))]
			}
		}
	}
	if quirks&quirkOutside != 0 {
		for i := range sys.Pos {
			for c := range sys.Pos[i] {
				sys.Pos[i][c] += float64(s.Intn(7)-3) * box
			}
		}
	}
	bad := -1
	if quirks&quirkNonFinite != 0 {
		bad = s.Intn(n)
		sys.Pos[bad][s.Intn(3)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[s.Intn(3)]
	}
	return sys, opt, bad
}

// markNaN makes the first entry of row i's diagonal block NaN, as the
// assembler marks a particle at a non-finite position.
func (im image) markNaN(i int) {
	k := 0
	for r := 0; r < i; r++ {
		k += im.rows[r]
	}
	for im.cols[k] != i {
		k++
	}
	im.bits[9*k] = math.Float64bits(math.NaN())
}

// checkAssemblerMatchesOracle steps one long-lived assembler through
// six configurations of a fuzzed system — walks of a tenth, a half and
// twice the skin, so that its list is reused and rebuilt — and requires
// at each the bits of a second assembler whose candidate pass runs the
// Go loop, and the oracle's bits, the row of a non-finite particle
// NaN-marked and every other row untouched by it.
func checkAssemblerMatchesOracle(t *testing.T, seed uint64, n int, ratio, phi float64, quirks, hostile uint8) {
	t.Helper()
	if !(ratio >= 1 && ratio <= 10) {
		ratio = 1 + math.Mod(math.Abs(ratio), 9)
		if ratio != ratio {
			ratio = 1
		}
	}
	if !(phi >= 0.05 && phi <= 0.5) {
		phi = 0.05 + math.Mod(math.Abs(phi), 0.45)
		if phi != phi {
			phi = 0.3
		}
	}
	threads := 1
	if quirks&quirkThreads != 0 {
		threads = 4
	}
	parallel.SetThreads(threads)
	saved := parallel.Threads()
	t.Cleanup(func() { parallel.SetThreads(saved) })

	s := rng.New(seed)
	sys, opt, bad := fuzzSystem(s, n, ratio, phi, quirks, hostile)
	skin := skinFraction * SearchCutoff(sys, opt)
	as, goLoop := NewAssembler(sys, opt), NewAssembler(sys, opt)
	for step, scale := range []float64{0, 0.1, 0.1, 0.5, 2, 0.1} {
		if scale > 0 {
			walk(sys.Pos, s, scale*skin)
		}
		fail := func(what, d string) {
			rb, ru := as.list.Rebuilds, as.list.Reuses
			t.Fatalf("seed %d n %d ratio %v phi %v quirks %08b hostile %04b threads %d step %d (%d rebuilds, %d reuses): %s: %s",
				seed, n, ratio, phi, quirks, hostile, threads, step, rb, ru, what, d)
		}
		a := as.Build(sys.Pos)
		got := imageOf(a)
		var ref *bcrs.Matrix
		withAVX2(false, func() { ref = goLoop.Build(sys.Pos) })
		if d := got.diff(imageOf(ref)); d != "" {
			fail("vs the Go candidate pass", d)
		}
		want, ok := oracleImage(sys, opt, hostile != 0)
		if ok && bad >= 0 {
			want.markNaN(bad)
		}
		if hostile != 0 {
			got.canonicalNaN()
		}
		if d := got.diff(want); ok && d != "" {
			fail("vs the oracle", d)
		}
		as.Recycle(a)
		goLoop.Recycle(ref)
	}
}

// oracleImage is the oracle's matrix at the system. Under hostile
// options it is not the assembler's reference to the bit: PairTensor
// panics on a gap at or below zero that a negative MinXi lets through
// (ok is then false), and where 1/xi overflows its NaNs carry another
// sign than pairCoef.axial's, so every NaN is made one.
func oracleImage(sys *particles.System, opt Options, hostile bool) (im image, ok bool) {
	if hostile {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
	}
	im = imageOf(oracle(sys, opt))
	if hostile {
		im.canonicalNaN()
	}
	return im, true
}

// canonicalNaN makes every NaN entry of im the same NaN.
func (im image) canonicalNaN() {
	for q, b := range im.bits {
		if math.IsNaN(math.Float64frombits(b)) {
			im.bits[q] = math.Float64bits(math.NaN())
		}
	}
}

// FuzzAssemblerMatchesOracle is the assembly contract on hostile small
// systems (make fuzz-neighbor): radius ratios up to 10, overlapping
// spheres, coincident centres, gaps below MinXi, pairs at the cutoff
// ± 1 ulp, coordinates outside the box and on its faces, a non-finite
// coordinate, 1 and 4 threads, one assembler along a walk, under
// hostile options (a subnormal or negative MinXi, CutoffXi 0 or 1e300,
// which send kept pairs off the AVX2 candidate pass's main path). The
// seeds run under go test.
func FuzzAssemblerMatchesOracle(f *testing.F) {
	f.Add(uint64(1), uint8(12), 1.0, 0.3, uint8(0), uint8(0))
	f.Add(uint64(2), uint8(38), 10.0, 0.45, uint8(quirkCoincide|quirkTouching|quirkCutoff), uint8(0))
	f.Add(uint64(3), uint8(30), 3.0, 0.05, uint8(quirkOutside|quirkFaces|quirkThreads), uint8(0))
	f.Add(uint64(4), uint8(25), 7.5, 0.2, uint8(quirkNonFinite|quirkWideCut), uint8(0))
	f.Add(uint64(5), uint8(39), 1.0, 0.05, uint8(0xff), uint8(0))
	f.Add(uint64(6), uint8(2), 10.0, 0.5, uint8(quirkNonFinite|quirkFaces|quirkOutside), uint8(0))
	f.Add(uint64(7), uint8(33), 4.0, 0.45, uint8(quirkCoincide|quirkTouching|quirkThreads), uint8(hostileSubnormalMinXi))
	f.Add(uint64(8), uint8(36), 2.0, 0.5, uint8(quirkTouching|quirkCutoff), uint8(hostileNegativeMinXi))
	f.Add(uint64(9), uint8(20), 6.0, 0.3, uint8(quirkWideCut|quirkFaces), uint8(hostileZeroCutoff))
	f.Add(uint64(10), uint8(14), 3.0, 0.4, uint8(quirkTouching), uint8(hostileHugeCutoff))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, ratio, phi float64, quirks, hostile uint8) {
		checkAssemblerMatchesOracle(t, seed, 2+int(n)%40, ratio, phi, quirks, hostile)
	})
}
