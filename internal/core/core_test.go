package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/solver"
)

// toyConfig is a synthetic dynamical system used to exercise the
// stepper independently of Stokesian dynamics: a fixed SPD coupling
// structure whose diagonal strength depends smoothly on the state, so
// the matrix evolves slowly as the state evolves — the property the
// MRHS algorithm relies on.
type toyConfig struct {
	base  *bcrs.Matrix
	state []float64
}

func newToy(nb int, seed uint64) *toyConfig {
	return &toyConfig{
		base:  bcrs.Random(bcrs.RandomOptions{NB: nb, BlocksPerRow: 5, Seed: seed}),
		state: make([]float64, nb*3),
	}
}

func (c *toyConfig) Dim() int { return c.base.N() }

func (c *toyConfig) Build() *bcrs.Matrix {
	nb := c.base.NB()
	b := bcrs.NewBuilder(nb)
	for i := 0; i < nb; i++ {
		lo, hi := c.base.RowBlocks(i)
		for k := lo; k < hi; k++ {
			b.AddBlock(i, c.base.BlockCol(k), c.base.BlockAt(k))
		}
		// State-dependent diagonal: strictly positive, smooth.
		s := c.state[3*i]
		b.AddBlock(i, i, blas.Ident3().ScaleM(1+0.5*math.Sin(s)+0.5))
	}
	return b.Build()
}

func (c *toyConfig) Recycle(*bcrs.Matrix) {}

func (c *toyConfig) SpectrumFloor() float64 { return 0.5 }

func (c *toyConfig) Displaced(u []float64, dt float64) Configuration {
	next := &toyConfig{base: c.base, state: append([]float64(nil), c.state...)}
	for i := range next.state {
		next.state[i] += dt * u[i]
	}
	return next
}

func TestConfigDefaults(t *testing.T) {
	r := NewRunner(newToy(5, 1), Config{})
	cfg := r.Cfg()
	if cfg.Dt != 2 || cfg.M != 16 || cfg.Tol != 1e-6 || cfg.ChebOrder != 30 || cfg.ForceScale != 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestOriginalStepOnToySystem(t *testing.T) {
	r := NewRunner(newToy(20, 2), Config{Dt: 0.1, Seed: 3})
	if err := r.RunOriginal(4); err != nil {
		t.Fatal(err)
	}
	if r.StepIndex() != 4 || r.Timings.Steps != 4 {
		t.Fatalf("counters wrong: %d / %d", r.StepIndex(), r.Timings.Steps)
	}
	if r.Timings.ChebVectors != 0 || r.Timings.CalcGuesses != 0 {
		t.Fatal("original algorithm must not accrue MRHS phases")
	}
	if r.Timings.ChebSingle <= 0 || r.Timings.FirstSolve <= 0 {
		t.Fatal("phase timings missing")
	}
}

func TestMRHSStepOnToySystem(t *testing.T) {
	r := NewRunner(newToy(20, 4), Config{Dt: 0.1, M: 6, Seed: 5})
	if err := r.RunMRHS(6); err != nil {
		t.Fatal(err)
	}
	if r.Timings.ChebVectors <= 0 || r.Timings.CalcGuesses <= 0 {
		t.Fatal("MRHS phases missing")
	}
	if len(r.Records) != 6 {
		t.Fatalf("records %d", len(r.Records))
	}
}

func TestNoiseIsStepIndexed(t *testing.T) {
	// The same global step must receive the same noise regardless of
	// algorithm — this is what makes the two trajectories comparable.
	a := NewRunner(newToy(10, 6), Config{Seed: 7})
	b := NewRunner(newToy(10, 6), Config{Seed: 7})
	na := slices.Clone(a.noise(3)) // noise returns the runner's own buffer
	nb := b.noise(3)
	for i := range na {
		if na[i] != nb[i] {
			t.Fatal("noise not reproducible")
		}
	}
	nc := a.noise(4)
	same := true
	for i := range na {
		if na[i] != nc[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different steps produced identical noise")
	}
}

func TestForceScaleAppliesToNoise(t *testing.T) {
	a := NewRunner(newToy(5, 8), Config{Seed: 9})
	b := NewRunner(newToy(5, 8), Config{Seed: 9, ForceScale: 2})
	na := a.noise(0)
	nb := b.noise(0)
	for i := range na {
		if math.Abs(nb[i]-2*na[i]) > 1e-15 {
			t.Fatal("ForceScale not applied")
		}
	}
}

func TestMRHSTrajectoryMatchesOriginalToy(t *testing.T) {
	mk := func() *Runner { return NewRunner(newToy(15, 10), Config{Dt: 0.05, M: 4, Seed: 11, Tol: 1e-12}) }
	o := mk()
	m := mk()
	if err := o.RunOriginal(8); err != nil {
		t.Fatal(err)
	}
	if err := m.RunMRHS(8); err != nil {
		t.Fatal(err)
	}
	so := o.Current().(*toyConfig).state
	sm := m.Current().(*toyConfig).state
	for i := range so {
		if math.Abs(so[i]-sm[i]) > 1e-6*(1+math.Abs(so[i])) {
			t.Fatalf("toy trajectories diverged at %d: %v vs %v", i, so[i], sm[i])
		}
	}
}

func TestStepMRHSZeroSteps(t *testing.T) {
	r := NewRunner(newToy(5, 12), Config{M: 4})
	if err := r.StepMRHS(0); err != nil {
		t.Fatal(err)
	}
	if r.StepIndex() != 0 {
		t.Fatal("zero-step chunk advanced the runner")
	}
}

func TestRelError(t *testing.T) {
	if e := relError([]float64{1, 0}, []float64{1, 0}); e != 0 {
		t.Fatalf("relError of identical vectors = %v", e)
	}
	if e := relError([]float64{3, 4}, []float64{0, 0}); math.Abs(e-1) > 1e-15 {
		t.Fatalf("relError vs zero guess = %v, want 1", e)
	}
	if e := relError([]float64{0, 0}, []float64{1, 1}); e != 0 {
		t.Fatalf("relError with zero solution = %v, want 0 (defined)", e)
	}
}

func TestPerStepKeysMatchPhaseOrder(t *testing.T) {
	r := NewRunner(newToy(10, 13), Config{Dt: 0.1, M: 2, Seed: 13})
	if err := r.RunMRHS(2); err != nil {
		t.Fatal(err)
	}
	per := r.Timings.PerStep()
	for _, k := range PhaseOrder {
		if _, ok := per[k]; !ok {
			t.Fatalf("PerStep missing key %q", k)
		}
	}
	if len(per) != len(PhaseOrder) {
		t.Fatalf("PerStep has %d keys, PhaseOrder %d", len(per), len(PhaseOrder))
	}
}

func TestPerStepEmptyBeforeRunning(t *testing.T) {
	r := NewRunner(newToy(5, 14), Config{})
	if r.Timings.PerStep() != nil {
		t.Fatal("PerStep before any step must be nil")
	}
}

func TestMaxIterPropagates(t *testing.T) {
	// An absurdly small iteration cap must surface as an error, not
	// silently wrong trajectories.
	r := NewRunner(newToy(30, 15), Config{Dt: 0.1, Seed: 15, MaxIter: 1, Tol: 1e-14})
	if err := r.StepOriginal(); err == nil {
		t.Fatal("expected convergence failure with MaxIter=1")
	}
}

// A non-finite right-hand side must fail the chunk's augmented solve
// with the solver's typed breakdown error, in its first iteration, not
// spin to MaxIter on NaN state.
func TestStepMRHSNonFiniteFailsTyped(t *testing.T) {
	tc := newToy(30, 16)
	force := make([]float64, tc.Dim())
	force[4] = math.NaN()
	r := NewRunner(tc, Config{Dt: 0.1, M: 4, Seed: 16,
		ExternalForce: func(Configuration) []float64 { return force }})
	err := r.StepMRHS(4)
	if !errors.Is(err, solver.ErrBreakdown) || r.BlockIters != 0 {
		t.Fatalf("err = %v after %d block iterations, want ErrBreakdown after 0", err, r.BlockIters)
	}
}

func TestExternalForceDrivesMotion(t *testing.T) {
	// A constant force on a toy system: with ForceScale tiny the
	// noise is negligible and each step must move the state along
	// +R^{-1} f (the mobility sign).
	tc := newToy(8, 20)
	force := make([]float64, tc.Dim())
	for i := 0; i < len(force); i += 3 {
		force[i] = 1 // +x on every block
	}
	r := NewRunner(tc, Config{
		Dt: 0.1, Seed: 21, ForceScale: 1e-9,
		ExternalForce: func(Configuration) []float64 { return force },
	})
	if err := r.RunOriginal(3); err != nil {
		t.Fatal(err)
	}
	st := r.Current().(*toyConfig).state
	moved := 0
	for i := 0; i < len(st); i += 3 {
		if st[i] > 0 {
			moved++
		}
	}
	if moved < 6 {
		t.Fatalf("only %d of 8 blocks moved along the force", moved)
	}
}

func TestExternalForceMRHSMatchesOriginal(t *testing.T) {
	force := func(c Configuration) []float64 {
		// Configuration-dependent force: pull every coordinate
		// toward zero (a harmonic trap).
		st := c.(*toyConfig).state
		f := make([]float64, len(st))
		for i, v := range st {
			f[i] = -0.5 * v
		}
		return f
	}
	mk := func() *Runner {
		return NewRunner(newToy(12, 22), Config{
			Dt: 0.05, M: 4, Seed: 23, Tol: 1e-12, ExternalForce: force,
		})
	}
	o := mk()
	m := mk()
	if err := o.RunOriginal(8); err != nil {
		t.Fatal(err)
	}
	if err := m.RunMRHS(8); err != nil {
		t.Fatal(err)
	}
	so := o.Current().(*toyConfig).state
	sm := m.Current().(*toyConfig).state
	for i := range so {
		if math.Abs(so[i]-sm[i]) > 1e-6*(1+math.Abs(so[i])) {
			t.Fatalf("forced trajectories diverged at %d: %v vs %v", i, so[i], sm[i])
		}
	}
}

func TestFirstSolveHookUsed(t *testing.T) {
	calls := 0
	r := NewRunner(newToy(6, 24), Config{
		Dt: 0.1, Seed: 25,
		FirstSolve: func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats {
			calls++
			return solver.CG(a, x, b, opt)
		},
	})
	if err := r.RunOriginal(2); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("FirstSolve hook called %d times, want 2", calls)
	}
}

// TestMidpointSecondOrder verifies the integrator's convergence
// order on a smooth deterministic problem (noise suppressed, constant
// external force, state-dependent matrix): halving dt must cut the
// endpoint error by ~4x. The second-order property is why the paper
// uses the midpoint method at all — a first-order integrator makes a
// systematic drift error when R depends on the configuration
// (Section II-C).
func TestMidpointSecondOrder(t *testing.T) {
	force := make([]float64, 8*3)
	for i := range force {
		force[i] = 0.7
	}
	endpoint := func(dt float64, steps int) []float64 {
		r := NewRunner(newToy(8, 30), Config{
			Dt: dt, Seed: 31, ForceScale: 1e-300, Tol: 1e-13,
			ExternalForce: func(Configuration) []float64 { return force },
		})
		if err := r.RunOriginal(steps); err != nil {
			t.Fatal(err)
		}
		return r.Current().(*toyConfig).state
	}
	const T = 1.6
	ref := endpoint(T/64, 64) // fine-dt reference
	errAt := func(n int) float64 {
		st := endpoint(T/float64(n), n)
		var e float64
		for i := range st {
			d := st[i] - ref[i]
			e += d * d
		}
		return math.Sqrt(e)
	}
	e4 := errAt(4)
	e8 := errAt(8)
	ratio := e4 / e8
	// Second order: ratio ~ 4. Allow slack for the reference error.
	if ratio < 2.8 || ratio > 6 {
		t.Fatalf("halving dt cut the error by %.2fx, want ~4 (second order)", ratio)
	}
}

// The chunk event splits calc_guesses_s into the block solve's
// multiplies and its block-vector work, and the same split reaches
// the trace; together they cannot exceed the phase they partition.
func TestChunkEventSplitsBlockSolveTime(t *testing.T) {
	var buf bytes.Buffer
	events := obs.NewEventLog(&buf)
	r := NewRunner(newToy(30, 4), Config{Dt: 0.1, M: 4, Seed: 5})
	r.Events = events
	r.Trace = obs.NewTracer(4, 4).Start("chunk-test")
	if err := r.StepMRHS(4); err != nil {
		t.Fatal(err)
	}
	if err := events.Flush(); err != nil {
		t.Fatal(err)
	}
	var chunk map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		if rec["event"] == "chunk" {
			chunk = rec
		}
	}
	if chunk == nil {
		t.Fatal("no chunk event")
	}
	mul, _ := chunk["block_mul_s"].(float64)
	vec, _ := chunk["block_vec_s"].(float64)
	guesses, _ := chunk["calc_guesses_s"].(float64)
	if mul <= 0 || vec <= 0 || mul+vec > guesses {
		t.Fatalf("block_mul_s %v + block_vec_s %v must be positive and within calc_guesses_s %v", mul, vec, guesses)
	}
	spans := map[string]bool{}
	for _, sp := range r.Trace.Snapshot().Spans {
		spans[sp.Name] = true
	}
	if !spans["block_mul"] || !spans["block_vec"] {
		t.Fatalf("trace lacks the block_mul/block_vec spans: %v", spans)
	}
}

// A factorisation breakdown must cost the window its preconditioner,
// never the step: the window is counted as a fallback, its solves run
// unpreconditioned, and the next window factors again.
func TestPrecondBreakdownLeavesWindowUnpreconditioned(t *testing.T) {
	r := NewRunner(newToy(12, 40), Config{Dt: 0.1, M: 3, Seed: 41})
	r.Obs = obs.NewRegistry()
	good := r.cur.Build()
	bad := bcrs.NewBuilder(good.NB())
	for i := 0; i < good.NB(); i++ {
		lo, hi := good.RowBlocks(i)
		for k := lo; k < hi; k++ {
			blk := good.BlockAt(k)
			if i == 5 && good.BlockCol(k) == 5 {
				blk[0] = math.NaN()
			}
			bad.AddBlock(i, good.BlockCol(k), blk)
		}
	}

	r.beginWindow(bad.Build())
	if r.pre != nil || r.solveOpts().Precond != nil {
		t.Fatal("a broken-down factor is still installed")
	}
	if n := r.Obs.Counter("core_precond_fallbacks_total").Value(); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
	// Steps 0..2 share the window that broke down; step 0 would reopen
	// it, so start inside it.
	r.k = 1
	if err := r.RunOriginal(2); err != nil {
		t.Fatalf("steps in an unpreconditioned window: %v", err)
	}
	if n := r.Obs.Counter("core_precond_rebuilds_total").Value(); n != 0 {
		t.Fatalf("rebuilds inside the broken window = %d, want 0", n)
	}
	if err := r.RunOriginal(1); err != nil { // step 3 opens the next window
		t.Fatal(err)
	}
	if r.pre == nil || r.Obs.Counter("core_precond_rebuilds_total").Value() != 1 {
		t.Fatal("the next window did not factor again")
	}
}

// badToy is a toy configuration whose matrix holds one bad scalar, from
// the step it is armed for on.
type badToy struct {
	*toyConfig
	row, col, entry int
	v               float64
	from, step      int
}

func (c *badToy) Build() *bcrs.Matrix {
	a := c.toyConfig.Build()
	if c.step < c.from {
		return a
	}
	b := bcrs.NewBuilder(a.NB())
	for i := 0; i < a.NB(); i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			blk := a.BlockAt(k)
			if i == c.row && a.BlockCol(k) == c.col {
				blk[c.entry] = c.v
			}
			b.AddBlock(i, a.BlockCol(k), blk)
		}
	}
	return b.Build()
}

func (c *badToy) Displaced(u []float64, dt float64) Configuration {
	next := *c
	next.toyConfig = c.toyConfig.Displaced(u, dt).(*toyConfig)
	if dt == badToyDt { // a full step, not the half step to the midpoint
		next.step++
	}
	return &next
}

const badToyDt = 0.1

// TestNonFiniteMatrixFailsTheStepAtTheBracket: a NaN or an infinity in
// the matrix — in the first row, in the last, in a diagonal or an
// off-diagonal block — stops the step where the spectrum is bracketed,
// with an error naming the step and before any solve, in both
// algorithms. The old bracket folded rows with comparisons that are
// false for NaN, so only a NaN in the first row was seen and every
// other ran on into a solver breakdown; +Inf went through to NaN
// Chebyshev coefficients.
func TestNonFiniteMatrixFailsTheStepAtTheBracket(t *testing.T) {
	const nb = 20
	offDiag := func(row int) int {
		base := newToy(nb, 21).base
		lo, hi := base.RowBlocks(row)
		for k := lo; k < hi; k++ {
			if base.BlockCol(k) != row {
				return base.BlockCol(k)
			}
		}
		t.Fatalf("row %d has no off-diagonal block", row)
		return 0
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, row := range []int{0, nb - 1} {
			for _, col := range []int{row, offDiag(row)} {
				for _, mrhs := range []bool{false, true} {
					c := &badToy{toyConfig: newToy(nb, 21), row: row, col: col, entry: 1, v: v, from: 2}
					r := NewRunner(c, Config{Dt: badToyDt, M: 4, Seed: 21})
					var err error
					if mrhs {
						err = r.StepMRHS(4)
					} else {
						for i := 0; i < 4 && err == nil; i++ {
							err = r.StepOriginal()
						}
					}
					if err == nil || err.Error() != "core: step 2: chebyshev: spectrum bracket not finite" || r.StepIndex() != 2 {
						t.Errorf("%v at block (%d, %d), mrhs %v: stopped at step %d with %v", v, row, col, mrhs, r.StepIndex(), err)
					}
				}
			}
		}
	}
	// At a chunk's R_0 the error names the chunk.
	c := &badToy{toyConfig: newToy(nb, 21), row: 3, col: 3, entry: 0, v: math.Inf(1)}
	err := NewRunner(c, Config{Dt: badToyDt, M: 4, Seed: 21}).StepMRHS(4)
	if err == nil || err.Error() != "core: chunk at step 0: chebyshev: spectrum bracket not finite" {
		t.Errorf("bad R_0: %v", err)
	}
}

// firstMulSpy records the input of the first single-vector multiply it
// is asked for: under the Chebyshev recurrence, T_1 = A z, that is the
// step's noise.
type firstMulSpy struct {
	*bcrs.Matrix
	seen *[][]float64
	done bool
}

func (s *firstMulSpy) Mul(y, x *multivec.MultiVec) {
	if !s.done && x.M == 1 {
		*s.seen, s.done = append(*s.seen, slices.Clone(x.Data)), true
	}
	s.Matrix.Mul(y, x)
}

// TestMRHSStepNoiseIsItsColumnOfZ: steps 1..m-1 of a chunk take their
// noise from column j of the Z the chunk drew for its block solve, not
// from a second draw; the vector that reaches S(R_k) is bitwise the
// noise of global step k, with and without a force scale.
func TestMRHSStepNoiseIsItsColumnOfZ(t *testing.T) {
	for _, scale := range []float64{0, 0.37} {
		var seen [][]float64
		cfg := Config{Dt: 0.1, M: 4, Seed: 23, ForceScale: scale}
		cfg.Distribute = func(a *bcrs.Matrix, _ Configuration) DistOp { return &firstMulSpy{Matrix: a, seen: &seen} }
		r := NewRunner(newToy(12, 23), cfg)
		if err := r.StepMRHS(4); err != nil {
			t.Fatal(err)
		}
		// Distribute is also asked for the midpoint operators, whose
		// multiplies are CG's, on residuals: of the seven single-vector
		// firsts, the Chebyshev ones are those of steps 1..3.
		ref := NewRunner(newToy(12, 23), Config{Seed: 23, ForceScale: scale})
		found := 0
		for k := 1; k < 4; k++ {
			want := ref.noise(k)
			for _, x := range seen {
				if slices.Equal(x, want) {
					found++
					break
				}
			}
		}
		if found != 3 {
			t.Errorf("force scale %v: %d of 3 step noises reached the square root bitwise", scale, found)
		}
	}
}
