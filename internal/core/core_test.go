package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/chebyshev"
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
	if cfg.Dt != 2 || cfg.M != 16 || cfg.Tol != 1e-6 || cfg.ChebOrder != 30 {
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

// A block solve that runs out of iterations fails the chunk with the
// stalled error and a block_solve failure count, as a first or second
// solve that runs out does: nothing re-solves its columns behind it.
// NoPrecond: a factor window draws its guesses and runs no block solve.
func TestStarvedBlockSolveFailsTheChunk(t *testing.T) {
	r := NewRunner(newToy(30, 15), Config{Dt: 0.1, M: 4, Seed: 15, MaxIter: 2, Tol: 1e-14, Precond: NoPrecond})
	r.Obs = obs.NewRegistry()
	err := r.StepMRHS(4)
	if err == nil || errors.Is(err, solver.ErrBreakdown) || !strings.Contains(err.Error(), "augmented solve stalled") {
		t.Fatalf("err = %v, want the augmented solve's stalled error", err)
	}
	if r.BlockIters != 2 || r.StepIndex() != 0 {
		t.Errorf("%d block iterations, at step %d: want the 2 of the budget, at step 0", r.BlockIters, r.StepIndex())
	}
	if n := r.Obs.Counter(obs.Label("core_solve_failures_total", "kind", "block_solve")).Value(); n != 1 {
		t.Errorf("core_solve_failures_total{kind=block_solve} = %d, want 1", n)
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
// order on a smooth deterministic problem: a constant right-hand side
// on a state-dependent matrix, each step's first velocity a cold CG and
// the rest of the step the finish tail every step of both algorithms
// ends in. Halving dt must cut the endpoint error by ~4x. The
// second-order property is why the paper uses the midpoint method at
// all — a first-order integrator makes a systematic drift error when R
// depends on the configuration (Section II-C).
func TestMidpointSecondOrder(t *testing.T) {
	endpoint := func(dt float64, steps int) []float64 {
		r := NewRunner(newToy(8, 30), Config{Dt: dt, Tol: 1e-13})
		rhs, u := make([]float64, r.cur.Dim()), make([]float64, r.cur.Dim())
		for i := range rhs {
			rhs[i] = 0.7
		}
		for k := 0; k < steps; k++ {
			clear(u)
			if st := solver.CG(r.cur.Build(), u, rhs, r.solveOpts()); !st.Converged {
				t.Fatalf("step %d: first solve stalled at %g", k, st.Residual)
			}
			if err := r.finish(StepRecord{Step: k}, u, rhs, nil, r.Timings); err != nil {
				t.Fatal(err)
			}
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
	t.Logf("halving dt cut the error by %.2fx", ratio)
}

// The chunk event splits calc_guesses_s into the block solve's
// multiplies and its block-vector work; together they cannot exceed
// the phase they partition.
// NoPrecond: a factor window draws its guesses and runs no block solve.
func TestChunkEventSplitsBlockSolveTime(t *testing.T) {
	var buf bytes.Buffer
	events := obs.NewEventLog(&buf)
	r := NewRunner(newToy(30, 4), Config{Dt: 0.1, M: 4, Seed: 5, Precond: NoPrecond})
	r.Events = events
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

// runBadToy steps a badToy four steps, or one chunk of four, and returns
// the error that stopped it.
func runBadToy(c *badToy, precond func(*bcrs.Matrix) solver.Preconditioner, mrhs bool) (*Runner, error) {
	r := NewRunner(c, Config{Dt: badToyDt, M: 4, Seed: 21, Precond: precond})
	if mrhs {
		return r, r.StepMRHS(4)
	}
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		err = r.StepOriginal()
	}
	return r, err
}

// TestNonFiniteMatrixFailsTheStepAtTheBracket: a NaN or an infinity in
// the matrix — in the first row, in the last, in a diagonal or an
// off-diagonal block — stops the step at its Brownian force, with an
// error naming the step and before any solve, in both algorithms. Under
// NoPrecond the paper's series finds it where the spectrum is
// bracketed (the old bracket folded rows with comparisons that are
// false for NaN, so only a NaN in the first row was seen and every
// other ran on into a solver breakdown; +Inf went through to NaN
// Chebyshev coefficients). Under the default the bad matrix arrives
// mid-window, behind a good factor, and the Lanczos square root fails
// with its typed error.
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
	const bracket = "core: step 2: chebyshev: spectrum bracket not finite"
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, row := range []int{0, nb - 1} {
			for _, col := range []int{row, offDiag(row)} {
				for _, mrhs := range []bool{false, true} {
					c := &badToy{toyConfig: newToy(nb, 21), row: row, col: col, entry: 1, v: v, from: 2}
					r, err := runBadToy(c, NoPrecond, mrhs)
					if err == nil || err.Error() != bracket || r.StepIndex() != 2 {
						t.Errorf("NoPrecond, %v at block (%d, %d), mrhs %v: stopped at step %d with %v", v, row, col, mrhs, r.StepIndex(), err)
					}
					r, err = runBadToy(c, nil, mrhs)
					if !errors.Is(err, chebyshev.ErrNotSPD) || !strings.HasPrefix(err.Error(), "core: step 2: ") || r.StepIndex() != 2 {
						t.Errorf("default, %v at block (%d, %d), mrhs %v: stopped at step %d with %v", v, row, col, mrhs, r.StepIndex(), err)
					}
				}
			}
		}
	}
	// At a chunk's R_0 the error names the chunk. The default window
	// factors that R_0 first and breaks down on it, so the chunk takes
	// the paper's series and its bracket.
	for _, precond := range []func(*bcrs.Matrix) solver.Preconditioner{NoPrecond, nil} {
		c := &badToy{toyConfig: newToy(nb, 21), row: 3, col: 3, entry: 0, v: math.Inf(1)}
		_, err := runBadToy(c, precond, true)
		if err == nil || err.Error() != "core: chunk at step 0: chebyshev: spectrum bracket not finite" {
			t.Errorf("bad R_0, NoPrecond %v: %v", precond != nil, err)
		}
	}
}

// TestIndefiniteMatrixFailsTyped: a step-2 matrix with a negative
// diagonal block is not SPD, and every Brownian force says so with the
// square root's typed error — at step 2, before any solve, in both
// algorithms — where a recurrence without a guard would run to its cap
// or past it: the default's roots through the window's factor (the
// direct velocity's inverse root in Algorithm 1, the root in Algorithm
// 2) and, under NoPrecond, the paper's series, whose bracket holds a
// matrix with a negative diagonal entry but whose first multiply gives
// a Rayleigh quotient below the bracket's floor.
func TestIndefiniteMatrixFailsTyped(t *testing.T) {
	for _, precond := range []func(*bcrs.Matrix) solver.Preconditioner{nil, NoPrecond} {
		for _, mrhs := range []bool{false, true} {
			for _, row := range []int{0, 11} {
				c := &badToy{toyConfig: newToy(20, 21), row: row, col: row, entry: 4, v: -50, from: 2}
				r, err := runBadToy(c, precond, mrhs)
				if !errors.Is(err, chebyshev.ErrNotSPD) || !strings.HasPrefix(err.Error(), "core: step 2: ") || r.StepIndex() != 2 {
					t.Errorf("NoPrecond %v, negative block in row %d, mrhs %v: stopped at step %d with %v", precond != nil, row, mrhs, r.StepIndex(), err)
				}
			}
		}
	}
}

// firstMulSpy records the input of the first single-vector multiply it
// is asked for: under the paper's Chebyshev recurrence, T_1 = A z, that
// is the step's noise.
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

// mulLSpy is an IC(0) window factor that records every single vector
// the preconditioned square root multiplies by L: its first, L z, takes
// the step's noise.
type mulLSpy struct {
	*solver.IC0
	seen *[][]float64
}

func (s mulLSpy) MulL(y, x *multivec.MultiVec) {
	if x.M == 1 {
		*s.seen = append(*s.seen, slices.Clone(x.Data))
	}
	s.IC0.MulL(y, x)
}

// TestMRHSStepNoiseIsItsColumnOfZ: steps 1..m-1 of a chunk take their
// noise from column j of the Z the chunk drew for its block solve, not
// from a second draw; the vector that reaches S(R_k) is bitwise the
// noise of global step k, on the paper's series and through the
// window's factor.
func TestMRHSStepNoiseIsItsColumnOfZ(t *testing.T) {
	for _, factor := range []bool{false, true} {
		var seen [][]float64
		cfg := Config{Dt: 0.1, M: 4, Seed: 23}
		if factor {
			cfg.Precond = func(a *bcrs.Matrix) solver.Preconditioner {
				ic, err := solver.NewIC0(a)
				if err != nil {
					t.Fatal(err)
				}
				return mulLSpy{ic, &seen}
			}
		} else {
			// Distribute is also asked for the midpoint operators, whose
			// multiplies are CG's, on residuals: of the seven
			// single-vector firsts, the Chebyshev ones are those of
			// steps 1..3.
			cfg.Precond = NoPrecond
			cfg.Distribute = func(a *bcrs.Matrix, _ Configuration) DistOp { return &firstMulSpy{Matrix: a, seen: &seen} }
		}
		r := NewRunner(newToy(12, 23), cfg)
		if err := r.StepMRHS(4); err != nil {
			t.Fatal(err)
		}
		ref := NewRunner(newToy(12, 23), Config{Seed: 23})
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
			t.Errorf("factor %v: %d of 3 step noises reached the square root bitwise", factor, found)
		}
	}
}

// TestDirectVelocityHookSolvesInNoIterations: under a factor window
// Algorithm 1 still hands its first system to the FirstSolve hook, which
// finds it solved — the velocity it is handed is the direct one, and
// the right-hand side was made from it — and takes 0 iterations. The
// step records say so, the step events carry velocity "direct" and the
// counter counts the steps; under NoPrecond the velocity is "solve".
func TestDirectVelocityHookSolvesInNoIterations(t *testing.T) {
	for _, precond := range []func(*bcrs.Matrix) solver.Preconditioner{nil, NoPrecond} {
		var iters []int
		var buf bytes.Buffer
		r := NewRunner(newToy(20, 26), Config{
			Dt: 0.1, M: 4, Seed: 27, Precond: precond,
			FirstSolve: func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats {
				st := solver.CG(a, x, b, opt)
				iters = append(iters, st.Iterations)
				return st
			},
		})
		r.Obs, r.Events = obs.NewRegistry(), obs.NewEventLog(&buf)
		if err := r.RunOriginal(6); err != nil {
			t.Fatal(err)
		}
		if err := r.Events.Flush(); err != nil {
			t.Fatal(err)
		}
		direct := precond == nil
		if len(iters) != 6 {
			t.Fatalf("NoPrecond %v: the hook saw %d first solves, want 6", !direct, len(iters))
		}
		for k, rec := range r.Records {
			if rec.Direct != direct || (rec.FirstIters == 0) != direct || rec.FirstIters != iters[k] {
				t.Errorf("NoPrecond %v step %d: record %+v, hook iterations %d", !direct, k, rec, iters[k])
			}
		}
		want, velocity := int64(0), "solve"
		if direct {
			want, velocity = 6, "direct"
		}
		if n := r.Obs.Counter("core_direct_velocity_steps_total").Value(); n != want {
			t.Errorf("NoPrecond %v: core_direct_velocity_steps_total = %d, want %d", !direct, n, want)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			var rec map[string]any
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			if rec["event"] == "step" && rec["velocity"] != velocity {
				t.Errorf("NoPrecond %v: step event velocity %v, want %q", !direct, rec["velocity"], velocity)
			}
		}
	}
}

// TestBrownianForceCovariance checks the distribution, not one call, of
// every Brownian force the stepper draws: the paper's series (a window
// without a factor), drawn in blocks as a chunk draws it, and under a
// window's factor the direct velocity's -R*u, one step's at a time, and
// a chunk's direct guesses' -R*u_j from the block inverse root, whose
// column 0 is step 0's force. Over 20000 noise vectors each
// force is whitened by R's dense Cholesky factor, w = C^{-1} f, and the
// sample covariance of w must be the identity within 0.05 in every
// entry — five standard deviations of a diagonal entry at this sample
// count, and unlike a comparison against R itself as sensitive to the
// slow modes as to the fast ones. The
// factor is taken at another state, so it is not R's: the covariance is
// R whatever L. A force of covariance M = L*L^T instead, L*z, must fail
// the same bound, or the test could not tell.
func TestBrownianForceCovariance(t *testing.T) {
	const samples, width, bound = 20000, 200, 0.05
	tc := newToy(8, 30)
	a := tc.Build()
	shift := make([]float64, tc.Dim())
	for i := range shift {
		shift[i] = 1
	}
	other := tc.Displaced(shift, 0.8).Build()
	c, err := blas.Cholesky(a.Dense())
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	u, rhs := make([]float64, n), make([]float64, n)
	z, f, y, guesses := multivec.New(n, width), multivec.New(n, width), multivec.New(n, width), multivec.New(n, width)
	for _, path := range []string{"series", "direct", "chunk", "L*z"} {
		precond := NoPrecond
		if path != "series" {
			precond = nil
		}
		r := NewRunner(tc, Config{Seed: 31, Precond: precond})
		r.beginWindow(other)
		fac, _ := r.pre.(chebyshev.Factor)
		if (fac == nil) != (path == "series") {
			t.Fatalf("%s: window factor %v", path, r.pre)
		}
		cov := blas.NewDense(n, n)
		w := make([]float64, n)
		for k0 := 0; k0 < samples; k0 += width {
			for j := 0; j < width; j++ {
				z.SetCol(j, r.noise(k0+j))
			}
			switch path {
			case "series":
				_, err = r.brownian(a, a, f, z)
			case "direct":
				for j := 0; j < width && err == nil; j++ {
					_, err = r.directVelocity(fac, a, u, rhs, r.noise(k0+j))
					blas.Scal(-1, rhs)
					f.SetCol(j, rhs)
				}
			case "chunk":
				if _, err = chebyshev.PrecondInvSqrt(nil, a, fac, y, z, r.cfg.ChebOrder, 0); err == nil {
					r.directGuesses(fac, a, guesses, y, u, rhs)
					a.Mul(f, guesses)
					f.Scale(-1)
					for i := range rhs {
						if d := f.At(i, 0) + rhs[i]; math.Abs(d) > 1e-12*(1+math.Abs(rhs[i])) {
							t.Fatalf("chunk: step 0's right-hand side %v is not R*u_0 %v", rhs[i], -f.At(i, 0))
						}
					}
				}
			case "L*z":
				fac.MulL(f, z)
			}
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for j := 0; j < width; j++ {
				for i := range w { // w = C^{-1} f
					s := f.At(i, j)
					for l := 0; l < i; l++ {
						s -= c.At(i, l) * w[l]
					}
					w[i] = s / c.At(i, i)
				}
				for i := range w {
					for l := 0; l <= i; l++ {
						cov.Add(i, l, w[i]*w[l])
					}
				}
			}
		}
		worst := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				worst = max(worst, math.Abs(cov.At(i, j)/samples-want))
			}
		}
		if pass := worst <= bound; pass != (path != "L*z") {
			t.Errorf("%s: whitened covariance is %.3g from the identity, bound %g", path, worst, bound)
		}
		t.Logf("%s: whitened covariance within %.3g of the identity", path, worst)
	}
}
