package sd

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/particles"
)

// smallSim builds a small but physically meaningful SD simulation.
func smallSim(t *testing.T, n int, phi float64, cfg core.Config) *Simulation {
	t.Helper()
	sys, err := particles.New(particles.Options{N: n, Phi: phi, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return New(sys, hydro.Options{Phi: phi}, cfg, 1)
}

func TestConfImplementsConfiguration(t *testing.T) {
	var _ core.Configuration = (*Conf)(nil)
}

func TestOriginalRunAdvances(t *testing.T) {
	s := smallSim(t, 40, 0.3, core.Config{Dt: 2, Seed: 1})
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	before := s.System().Clone()
	if err := s.RunOriginal(3); err != nil {
		t.Fatal(err)
	}
	if s.StepIndex() != 3 {
		t.Fatalf("step index %d, want 3", s.StepIndex())
	}
	moved := 0
	for i := range before.Pos {
		if s.System().Pos[i] != before.Pos[i] {
			moved++
		}
	}
	if moved < before.N/2 {
		t.Fatalf("only %d of %d particles moved", moved, before.N)
	}
	if len(s.Records) != 3 {
		t.Fatalf("records %d", len(s.Records))
	}
	for _, r := range s.Records {
		if r.FirstIters <= 0 || r.SecondIters < 0 {
			t.Fatalf("bad record %+v", r)
		}
		if r.HadGuess {
			t.Fatal("original algorithm must not report guesses")
		}
	}
}

func TestMRHSRunAdvances(t *testing.T) {
	s := smallSim(t, 40, 0.3, core.Config{Dt: 2, M: 4, Seed: 2})
	if err := s.RunMRHS(8); err != nil {
		t.Fatal(err)
	}
	if s.StepIndex() != 8 {
		t.Fatalf("step index %d", s.StepIndex())
	}
	// All MRHS steps are warm-started.
	for _, r := range s.Records {
		if !r.HadGuess {
			t.Fatalf("MRHS step %d missing guess", r.Step)
		}
	}
	// Two chunks of 4 -> two augmented solves.
	if s.BlockIters <= 0 {
		t.Fatal("no block iterations recorded")
	}
}

func TestMRHSPartialChunk(t *testing.T) {
	s := smallSim(t, 30, 0.2, core.Config{Dt: 2, M: 16, Seed: 3})
	if err := s.RunMRHS(5); err != nil {
		t.Fatal(err)
	}
	if s.StepIndex() != 5 {
		t.Fatalf("step index %d, want 5 (partial chunk)", s.StepIndex())
	}
}

// TestMRHSMatchesOriginalTrajectory is the central correctness test:
// with identical noise streams and tight solver tolerances, the MRHS
// algorithm must produce the *same physical trajectory* as the
// original algorithm — initial guesses change the cost of the solves,
// never their converged solutions.
func TestMRHSMatchesOriginalTrajectory(t *testing.T) {
	mk := func() *Simulation {
		sys, err := particles.New(particles.Options{N: 35, Phi: 0.35, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return New(sys, hydro.Options{Phi: 0.35}, core.Config{
			Dt: 2, M: 5, Seed: 99, Tol: 1e-11,
		}, 1)
	}
	orig := mk()
	mrhs := mk()
	const steps = 10
	if err := orig.RunOriginal(steps); err != nil {
		t.Fatal(err)
	}
	if err := mrhs.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	so, sm := orig.System(), mrhs.System()
	var worst float64
	for i := range so.Pos {
		d := so.Pos[i].Sub(sm.Pos[i]).Norm()
		if d > worst {
			worst = d
		}
	}
	// Positions drift apart only through solver tolerance; with
	// 1e-11 tolerances over 10 steps the gap stays tiny relative to
	// particle radii (~20-115 Angstroms).
	if worst > 1e-4 {
		t.Fatalf("trajectories diverged by %v Angstroms", worst)
	}
}

func TestMRHSGuessesReduceIterations(t *testing.T) {
	// Table V's claim: warm-started first solves need ~30-40% fewer
	// iterations than cold ones.
	mk := func() *Simulation {
		sys, err := particles.New(particles.Options{N: 60, Phi: 0.45, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return New(sys, hydro.Options{Phi: 0.45}, core.Config{Dt: 2, M: 8, Seed: 5}, 1)
	}
	orig := mk()
	mrhs := mk()
	const steps = 8
	if err := orig.RunOriginal(steps); err != nil {
		t.Fatal(err)
	}
	if err := mrhs.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	var cold, warm, warmCount int
	for _, r := range orig.Records {
		cold += r.FirstIters
	}
	for _, r := range mrhs.Records[1:] { // step 0's first solve is in the block solve
		warm += r.FirstIters
		warmCount++
	}
	meanCold := float64(cold) / float64(len(orig.Records))
	meanWarm := float64(warm) / float64(warmCount)
	if meanWarm >= meanCold {
		t.Fatalf("guesses did not reduce iterations: warm %.1f vs cold %.1f", meanWarm, meanCold)
	}
}

func TestGuessErrorGrowsWithStep(t *testing.T) {
	// Figure 5: the guess error grows like sqrt(t) — in particular
	// it must grow, and sublinearly. Check monotone-ish growth over
	// a chunk.
	s := smallSim(t, 50, 0.4, core.Config{Dt: 2, M: 10, Seed: 13})
	if err := s.RunMRHS(10); err != nil {
		t.Fatal(err)
	}
	recs := s.Records
	// First record has no separate first solve; inspect the rest.
	first := recs[1].GuessRelError
	last := recs[len(recs)-1].GuessRelError
	if first <= 0 || last <= 0 {
		t.Fatalf("guess errors not recorded: first=%v last=%v", first, last)
	}
	if last <= first {
		t.Fatalf("guess error did not grow across the chunk: %v .. %v", first, last)
	}
}

func TestTimingsAccumulate(t *testing.T) {
	s := smallSim(t, 30, 0.3, core.Config{Dt: 2, M: 4, Seed: 17})
	if err := s.RunMRHS(4); err != nil {
		t.Fatal(err)
	}
	per := s.Timings.PerStep()
	for _, key := range []string{"Cheb vectors", "Calc guesses", "Cheb single", "1st solve", "2nd solve", "Average"} {
		if per[key] < 0 {
			t.Fatalf("negative time for %s", key)
		}
	}
	if per["Average"] <= 0 {
		t.Fatal("average step time must be positive")
	}
	if s.Elapsed() <= 0 {
		t.Fatal("elapsed must be positive")
	}
}

func TestMatrixStats(t *testing.T) {
	s := smallSim(t, 80, 0.4, core.Config{Dt: 2, Seed: 19})
	n, nb, nnz, nnzb, bpr := s.MatrixStats()
	if n != 240 || nb != 80 {
		t.Fatalf("dims %d/%d", n, nb)
	}
	if nnz != nnzb*9 {
		t.Fatal("nnz inconsistent")
	}
	if bpr < 1 {
		t.Fatalf("blocks per row %v", bpr)
	}
}

func TestReportAggregates(t *testing.T) {
	s := smallSim(t, 30, 0.3, core.Config{Dt: 2, M: 3, Seed: 23})
	if err := s.RunMRHS(6); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.MeanFirstIters <= 0 || rep.MeanSecondIters <= 0 {
		t.Fatalf("report means not positive: %+v", rep)
	}
	if len(rep.Records) != 6 {
		t.Fatalf("report records %d", len(rep.Records))
	}
}

func TestOnStepObserver(t *testing.T) {
	s := smallSim(t, 20, 0.2, core.Config{Dt: 2, M: 2, Seed: 29})
	var seen []int
	s.OnStep = func(step int, u []float64, dt float64) {
		if len(u) != 60 || dt != 2 {
			t.Fatalf("observer got len(u)=%d dt=%v", len(u), dt)
		}
		seen = append(seen, step)
	}
	if err := s.RunMRHS(4); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 || seen[0] != 0 || seen[3] != 3 {
		t.Fatalf("observer steps %v", seen)
	}
}

func TestCholeskyRunner(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 25, Phi: 0.35, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	r := NewCholeskyRunner(NewConf(sys, hydro.Options{Phi: 0.35}, 1), core.Config{Dt: 2, Seed: 31})
	if err := r.Run(3); err != nil {
		t.Fatal(err)
	}
	if r.Steps != 3 {
		t.Fatalf("steps %d", r.Steps)
	}
	// Refinement with the stale factor should converge in a handful
	// of sweeps per step.
	if r.RefineIters > 3*20 {
		t.Fatalf("refinement too slow: %d sweeps over 3 steps", r.RefineIters)
	}
	moved := false
	for i := range sys.Pos {
		if r.Current().Sys.Pos[i] != sys.Pos[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("Cholesky runner did not move particles")
	}
}

func TestIterationsGrowWithOccupancy(t *testing.T) {
	// Table V: higher volume occupancy -> worse conditioning -> more
	// iterations.
	iters := func(phi float64) float64 {
		sys, err := particles.New(particles.Options{N: 60, Phi: phi, Seed: 37})
		if err != nil {
			t.Fatal(err)
		}
		s := New(sys, hydro.Options{Phi: phi}, core.Config{Dt: 2, Seed: 37}, 1)
		if err := s.RunOriginal(3); err != nil {
			t.Fatal(err)
		}
		var sum int
		for _, r := range s.Records {
			sum += r.FirstIters
		}
		return float64(sum) / float64(len(s.Records))
	}
	lo := iters(0.1)
	hi := iters(0.5)
	if hi <= lo {
		t.Fatalf("iterations did not grow with occupancy: %.1f at 0.1 vs %.1f at 0.5", lo, hi)
	}
}

func TestSpectrumFloorPositive(t *testing.T) {
	s := smallSim(t, 20, 0.2, core.Config{})
	if f := s.Current().(*Conf).SpectrumFloor(); f <= 0 {
		t.Fatalf("floor %v", f)
	}
}

func TestDisplacedLeavesOriginal(t *testing.T) {
	s := smallSim(t, 15, 0.2, core.Config{})
	c := s.Current().(*Conf)
	u := make([]float64, c.Dim())
	for i := range u {
		u[i] = 1
	}
	before := c.Sys.Pos[0]
	next := c.Displaced(u, 1).(*Conf)
	if c.Sys.Pos[0] != before {
		t.Fatal("Displaced mutated the original configuration")
	}
	if next.Sys.Pos[0] == before {
		t.Fatal("Displaced did not move the new configuration")
	}
	if math.Abs(next.Sys.Phi-c.Sys.Phi) > 0 {
		t.Fatal("Phi changed")
	}
}

func TestNeighborListAmortizesBuilds(t *testing.T) {
	s := smallSim(t, 60, 0.4, core.Config{Dt: 2, M: 4, Seed: 41})
	if err := s.RunMRHS(8); err != nil {
		t.Fatal(err)
	}
	// 8 steps build the matrix ~3x per step (R_0, R_k, midpoints);
	// the skin must have absorbed most rebuilds.
	c := s.Current().(*Conf)
	if c.Sys == nil {
		t.Fatal("no system")
	}
	if c.asm == nil {
		t.Fatal("conf carries no assembler")
	}
	rebuilds, reuses := c.asm.ListCounts()
	if reuses == 0 {
		t.Fatal("neighbor list never reused across steps")
	}
	if rebuilds > reuses {
		t.Fatalf("list thrashing: %d rebuilds vs %d reuses", rebuilds, reuses)
	}
}

// TestBuildAllocatesOnlyTheMatrix: on a warmed chain a build allocates
// the matrix it returns — the struct and its three arrays — and nothing
// else: no pair list, no tensors, no builder.
func TestBuildAllocatesOnlyTheMatrix(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 300, Phi: 0.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConf(sys, hydro.Options{}, 1)
	a := c.Build()
	own := 4*(a.NB()+1) + 4*a.NNZB() + 8*a.NNZ()

	if n := testing.AllocsPerRun(20, func() { c.Build() }); n > 4 {
		t.Fatalf("a warmed build allocated %v times, want at most 4", n)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c.Build()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > 1.25*float64(own) {
		t.Fatalf("a warmed build allocated %.0f bytes for a matrix of %d", got, own)
	}
}

// TestBuildIndependentOfChainHistory: the matrix at a configuration is
// the same bits from the chain that walked there, whose list was built
// steps ago, and from a new chain started there — which is what lets a
// checkpoint restore or a chaos replay rejoin the clean trajectory.
func TestBuildIndependentOfChainHistory(t *testing.T) {
	s := smallSim(t, 80, 0.4, core.Config{Dt: 2, M: 4, Seed: 9})
	if err := s.RunMRHS(8); err != nil {
		t.Fatal(err)
	}
	walked := s.Current().(*Conf)
	if _, reuses := walked.asm.ListCounts(); reuses == 0 {
		t.Fatal("the walked chain never reused its list")
	}
	a, b := walked.Build(), NewConf(walked.Sys.Clone(), walked.Opt, 1).Build()
	if a.NNZB() != b.NNZB() {
		t.Fatalf("nnzb %d vs %d", a.NNZB(), b.NNZB())
	}
	for k := 0; k < a.NNZB(); k++ {
		if a.BlockCol(k) != b.BlockCol(k) || a.BlockAt(k) != b.BlockAt(k) {
			t.Fatalf("block %d differs between the walked and the fresh chain", k)
		}
	}
}

func TestSkipToAffectsNoise(t *testing.T) {
	// SkipTo must change which noise the next step consumes: two
	// sims skipped to different steps diverge immediately.
	a := smallSim(t, 30, 0.3, core.Config{Dt: 2, Seed: 43})
	b := smallSim(t, 30, 0.3, core.Config{Dt: 2, Seed: 43})
	b.SkipTo(5)
	if err := a.RunOriginal(1); err != nil {
		t.Fatal(err)
	}
	if err := b.RunOriginal(1); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.System().Pos {
		if a.System().Pos[i] != b.System().Pos[i] {
			same = false
		}
	}
	if same {
		t.Fatal("skipped runner consumed the same noise")
	}
}

// TestDistributedSimulationMatchesSerial is the distributed-SD
// flagship check: a full MRHS simulation whose every multiply runs
// over the simulated cluster must reproduce the serial trajectory to
// solver tolerance.
func TestDistributedSimulationMatchesSerial(t *testing.T) {
	mkSys := func() *particles.System {
		sys, err := particles.New(particles.Options{N: 50, Phi: 0.35, Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cfg := core.Config{Dt: 2, M: 4, Seed: 52, Tol: 1e-11}
	serial := New(mkSys(), hydro.Options{Phi: 0.35}, cfg, 1)
	dist := NewDistributed(mkSys(), hydro.Options{Phi: 0.35}, cfg, 5)
	const steps = 8
	if err := serial.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	if err := dist.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	ss, ds := serial.System(), dist.System()
	var worst float64
	for i := range ss.Pos {
		if d := ss.Pos[i].Sub(ds.Pos[i]).Norm(); d > worst {
			worst = d
		}
	}
	if worst > 1e-4 {
		t.Fatalf("distributed trajectory diverged by %v Angstroms", worst)
	}
	// Warm starts must still work distributed.
	for _, r := range dist.Records {
		if !r.HadGuess {
			t.Fatal("distributed MRHS lost its guesses")
		}
	}
}

// TestNonFinitePositionFailsTheStep: a particle at a NaN or infinite
// coordinate — a hostile checkpoint, or a dt*u that overflowed — loses
// every pair (a comparison with NaN is false), so nothing but its
// poisoned diagonal block tells. Every stepper must return an error
// naming the step: not hang in Wrap, not run on with the particle. A
// huge finite coordinate is wrapped and is no error.
func TestNonFinitePositionFailsTheStep(t *testing.T) {
	conf := func() *Conf {
		sys, err := particles.New(particles.Options{N: 25, Phi: 0.35, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		return NewConf(sys, hydro.Options{Phi: 0.35}, 1)
	}
	cfg := core.Config{Dt: 2, M: 4, Seed: 31}
	steppers := map[string]func(core.Configuration) error{
		"original": func(c core.Configuration) error { return core.NewRunner(c, cfg).RunOriginal(2) },
		"mrhs":     func(c core.Configuration) error { return core.NewRunner(c, cfg).RunMRHS(4) },
		"cholesky": func(c core.Configuration) error { return NewCholeskyRunner(c.(*Conf), cfg).Run(2) },
	}
	for name, run := range steppers {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
			for _, at := range []int{0, 24} {
				c := conf()
				c.Sys.Pos[at][1] = v
				err := run(c)
				if v == 1e300 && err != nil {
					t.Errorf("%s, particle %d at %v: %v", name, at, v, err)
				} else if v != 1e300 && (err == nil || !strings.Contains(err.Error(), "step 0")) {
					t.Errorf("%s, particle %d at %v: %v", name, at, v, err)
				}
			}
		}
		// The midpoint matrix meets no bracket: the second solve refuses it.
		if name != "cholesky" {
			if err := run(overflowing{conf()}); err == nil || !strings.Contains(err.Error(), "step 0 second solve") {
				t.Errorf("%s, a displacement that overflows: %v", name, err)
			}
		}
	}
}

// overflowing is a Conf whose every displacement — the first is the
// midpoint of its first step — sends one coordinate to infinity.
type overflowing struct{ *Conf }

func (c overflowing) Displaced(u []float64, dt float64) core.Configuration {
	u = append([]float64(nil), u...)
	u[7] = math.Inf(1)
	return c.Conf.Displaced(u, dt)
}
