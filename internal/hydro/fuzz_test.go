package hydro

import (
	"math"
	"testing"

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

// fuzzSystem builds n spheres with radii spread by up to ratio in a box
// sized for occupancy phi, placed uniformly (overlaps included) and then
// bent by quirks. It returns the particle given a non-finite coordinate,
// or -1.
func fuzzSystem(s *rng.Stream, n int, ratio, phi float64, quirks uint8) (*particles.System, Options, int) {
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
// the oracle's bits at each, the row of a non-finite particle NaN-marked
// and every other row untouched by it.
func checkAssemblerMatchesOracle(t *testing.T, seed uint64, n int, ratio, phi float64, quirks uint8) {
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
	t.Cleanup(func() { parallel.SetThreads(1) })

	s := rng.New(seed)
	sys, opt, bad := fuzzSystem(s, n, ratio, phi, quirks)
	skin := skinFraction * SearchCutoff(sys, opt)
	as := NewAssembler(sys, opt)
	for step, scale := range []float64{0, 0.1, 0.1, 0.5, 2, 0.1} {
		if scale > 0 {
			walk(sys.Pos, s, scale*skin)
		}
		want := imageOf(oracle(sys, opt))
		if bad >= 0 {
			want.markNaN(bad)
		}
		a := as.Build(sys.Pos)
		if d := imageOf(a).diff(want); d != "" {
			rb, ru := as.ListCounts()
			t.Fatalf("seed %d n %d ratio %v phi %v quirks %08b threads %d step %d (%d rebuilds, %d reuses): %s",
				seed, n, ratio, phi, quirks, threads, step, rb, ru, d)
		}
		as.Recycle(a)
	}
}

// FuzzAssemblerMatchesOracle is the assembly contract on hostile small
// systems (make fuzz-neighbor): radius ratios up to 10, overlapping
// spheres, coincident centres, gaps below MinXi, pairs at the cutoff
// ± 1 ulp, coordinates outside the box and on its faces, a non-finite
// coordinate, 1 and 4 threads, one assembler along a walk. The seeds
// run under go test.
func FuzzAssemblerMatchesOracle(f *testing.F) {
	f.Add(uint64(1), uint8(12), 1.0, 0.3, uint8(0))
	f.Add(uint64(2), uint8(38), 10.0, 0.45, uint8(quirkCoincide|quirkTouching|quirkCutoff))
	f.Add(uint64(3), uint8(30), 3.0, 0.05, uint8(quirkOutside|quirkFaces|quirkThreads))
	f.Add(uint64(4), uint8(25), 7.5, 0.2, uint8(quirkNonFinite|quirkWideCut))
	f.Add(uint64(5), uint8(39), 1.0, 0.05, uint8(0xff))
	f.Add(uint64(6), uint8(2), 10.0, 0.5, uint8(quirkNonFinite|quirkFaces|quirkOutside))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, ratio, phi float64, quirks uint8) {
		checkAssemblerMatchesOracle(t, seed, 2+int(n)%40, ratio, phi, quirks)
	})
}
