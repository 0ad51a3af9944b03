package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/chebyshev"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Configuration is one snapshot of a simulated system: everything the
// stepper needs to assemble and bound the current resistance matrix
// and to advance the state.
type Configuration interface {
	// Dim returns the number of scalar degrees of freedom (3 per
	// particle for SD).
	Dim() int
	// Build assembles the SPD system matrix at this configuration.
	Build() *bcrs.Matrix
	// Recycle hands back a matrix Build returned, which the caller will
	// not touch again: a later Build may reuse its storage. Optional.
	Recycle(a *bcrs.Matrix)
	// SpectrumFloor returns a positive lower bound on the matrix
	// spectrum (the far-field diagonal floor for SD).
	SpectrumFloor() float64
	// Displaced returns a new configuration advanced by dt times the
	// velocity u, leaving the receiver unchanged.
	Displaced(u []float64, dt float64) Configuration
}

// Config holds the stepper parameters.
type Config struct {
	// Dt is the time step (2 ps in the paper's units).
	Dt float64
	// M is the MRHS chunk size: right-hand sides per augmented
	// solve. The original algorithm ignores it. 16 in the paper's
	// headline runs.
	M int
	// Tol is the solver relative-residual tolerance (paper: 1e-6).
	Tol float64
	// MaxIter caps solver iterations (0: solver default).
	MaxIter int
	// ChebOrder is the maximum Chebyshev order for the Brownian
	// force (paper: 30).
	ChebOrder int
	// ChebTol, if positive, truncates the Chebyshev series
	// adaptively.
	ChebTol float64
	// ForceScale multiplies the Brownian force (absorbs the
	// neglected physical constants sqrt(2 kT / dt); default 1).
	ForceScale float64
	// Seed drives the noise streams; step k's noise depends only on
	// (Seed, k), so the original and MRHS algorithms integrate
	// identical noise histories.
	Seed uint64
	// Symmetric switches every multiply of the step onto half
	// (upper-triangle) storage: each assembled resistance matrix is
	// extracted once into a bcrs.SymMatrix — resistance matrices are
	// symmetric by construction — and CG, block CG, and the Chebyshev
	// recurrence all multiply through it, halving the matrix memory
	// traffic per the Section IV-B model. Preconditioner construction
	// and the Gershgorin bracket still read the full matrix, which
	// exists anyway as the assembly product. Ignored when Distribute
	// is set (the distributed operator owns its storage layout).
	Symmetric bool
	// FirstSolve, if non-nil, replaces plain CG for each step's
	// first solve. It receives the step's matrix, the right-hand
	// side, and x holding the initial guess (zero for the original
	// algorithm) and, in its options, the window's preconditioner. The
	// matrix is valid for the call only: the stepper recycles it after.
	// This hook is how Krylov recycling, Section III's second
	// technique, plugs into the same time-stepping loop for comparison.
	FirstSolve SolveFunc
	// Distribute, if non-nil, wraps each assembled matrix into the
	// operator used for every multiply of the step — CG, block CG,
	// and the Chebyshev recurrence alike. Supplying a partitioned
	// cluster operator here turns the stepper into a distributed-
	// memory SD simulation, the code the paper notes it does not yet
	// have (Section V-A). The callback receives the configuration
	// the matrix was assembled at (for geometric partitioning). The
	// matrix, hence the operator over it, is valid until the solve it
	// was built for returns; the step's midpoint matrix gets its own call.
	Distribute func(a *bcrs.Matrix, c Configuration) DistOp
	// Precond builds the one preconditioner every solve of a reuse
	// window shares — the augmented block solve and each first and
	// second solve — which composes the first technique of Section III
	// (a preconditioner reused while the matrices drift) with the MRHS
	// guesses. A window is a chunk in Algorithm 2, built from its R_0
	// and charged to Calc guesses, and M steps in Algorithm 1, built
	// from the matrix of every step k with k % M == 0 (or of the first
	// step a runner takes) and charged to that step's first solve. Nil
	// means block IC(0) (solver.IC0, refactored in place; a breakdown
	// leaves that window unpreconditioned and is counted, the step goes
	// on). A nil result means an unpreconditioned window: NoPrecond is
	// the paper's setting. The matrix is valid for the call only, so the
	// result must copy what it keeps (solver.IC0 and BlockJacobi do).
	Precond func(a *bcrs.Matrix) solver.Preconditioner
	// BlockPrecond, if non-nil, is called with each chunk's R_0 right
	// before the augmented block solve and may return a preconditioner
	// for that solve alone; a nil result keeps the window's. The traced
	// benchmark uses the call to mark where the block solve begins. The
	// matrix is valid for the call only.
	BlockPrecond func(a *bcrs.Matrix) solver.Preconditioner
	// Recovery, if non-nil, arms crash recovery in the Run loops:
	// transport faults that unwind out of a step or chunk restore the
	// last snapshot and replay it (see Recovery). Nil converts fault
	// panics to errors but does not replay.
	Recovery *Recovery
	// ExternalForce, if non-nil, returns the deterministic
	// inter-particle force f^P at a configuration (the paper's
	// bonded-chain case, Section II-A; its experiments use f^P = 0).
	// Each step solves R u = -(f^B + f^P). The MRHS augmented system
	// evaluates f^P at the chunk-start configuration — like R_0
	// itself, it varies slowly, so the guesses stay good — while the
	// per-step solves use the exact current force.
	ExternalForce func(c Configuration) []float64
}

// NoPrecond is the Config.Precond of the paper's experiments: every
// solve unpreconditioned.
func NoPrecond(*bcrs.Matrix) solver.Preconditioner { return nil }

// SolveFunc solves a*x = b starting from the guess in x; opt carries
// the tolerance and the window's preconditioner.
type SolveFunc func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats

// DistOp is the operator surface a distributed wrapper must provide:
// everything one time step multiplies through. *bcrs.Matrix and
// *cluster.Cluster both satisfy it.
type DistOp interface {
	N() int
	MulVec(y, x []float64)
	Mul(y, x *multivec.MultiVec)
}

func (c Config) withDefaults() Config {
	if c.Dt == 0 {
		c.Dt = 2
	}
	if c.M == 0 {
		c.M = 16
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	if c.ChebOrder == 0 {
		c.ChebOrder = chebyshev.DefaultOrder
	}
	if c.ForceScale == 0 {
		c.ForceScale = 1
	}
	return c
}

// Timings accumulates wall time per phase, mirroring the rows of the
// paper's Tables VI and VII.
type Timings struct {
	Construct   time.Duration // matrix assembly
	ChebVectors time.Duration // S(R_0)*Z with m vectors (MRHS only)
	CalcGuesses time.Duration // augmented block solve (MRHS only)
	ChebSingle  time.Duration // S(R_k)*z_k single vector
	FirstSolve  time.Duration // step solve (with guess under MRHS)
	SecondSolve time.Duration // midpoint corrector solve
	// Factor is the time spent building the windows' preconditioners.
	// It is not a phase of its own: it is already inside CalcGuesses
	// (Algorithm 2) or FirstSolve (Algorithm 1).
	Factor time.Duration
	Steps  int // time steps accumulated
}

// PhaseOrder lists the PerStep keys in the paper's table-row order.
var PhaseOrder = []string{
	"Construct", "Cheb vectors", "Calc guesses",
	"Cheb single", "1st solve", "2nd solve", "Average",
}

// PerStep returns the average seconds per step of each phase plus the
// total under "Average", keyed like the paper's table rows. Following
// the paper's Tables VI/VII, "Average" sums the five solver phases
// and excludes matrix construction (reported separately under
// "Construct"), which both algorithms pay identically.
func (t Timings) PerStep() map[string]float64 {
	if t.Steps == 0 {
		return nil
	}
	s := float64(t.Steps)
	out := map[string]float64{
		"Construct":    t.Construct.Seconds() / s,
		"Cheb vectors": t.ChebVectors.Seconds() / s,
		"Calc guesses": t.CalcGuesses.Seconds() / s,
		"Cheb single":  t.ChebSingle.Seconds() / s,
		"1st solve":    t.FirstSolve.Seconds() / s,
		"2nd solve":    t.SecondSolve.Seconds() / s,
	}
	out["Average"] = out["Cheb vectors"] + out["Calc guesses"] +
		out["Cheb single"] + out["1st solve"] + out["2nd solve"]
	return out
}

// StepRecord captures per-step convergence data (Figures 5-6, Table
// V).
type StepRecord struct {
	// Step is the global time-step index.
	Step int
	// FirstIters and SecondIters are the iteration counts of the two
	// midpoint solves.
	FirstIters, SecondIters int
	// HadGuess reports whether the first solve was warm-started.
	HadGuess bool
	// GuessRelError is ||u_k - u'_k|| / ||u_k|| for warm-started
	// first solves (Figure 5); 0 otherwise.
	GuessRelError float64
}

// Runner advances a configuration with either algorithm while
// collecting timings and per-step records.
type Runner struct {
	cfg Config
	cur Configuration
	k   int // global step index

	// onStepHigh is the watermark of steps already reported through
	// OnStep, so a fault-recovery replay never emits a trajectory
	// frame twice.
	onStepHigh int

	// pre preconditions every solve of the current reuse window (nil:
	// the window is unpreconditioned), preStep is the step it was built
	// at (-1: no window yet) and ic the default factor, refilled in
	// place window after window.
	pre     solver.Preconditioner
	preStep int
	ic      solver.IC0

	// audit, set by tests, sees every converged solve's system and
	// solution (the block solve column by column).
	audit func(kind string, a *bcrs.Matrix, x, b []float64)

	// buf holds the vectors of one time step — noise, Brownian force,
	// right-hand side, first-solve guess and solution, midpoint
	// velocity — reused from step to step. None outlives its step:
	// OnStep must not retain its slice.
	buf struct{ noise, fb, rhs, guess, u, uHalf []float64 }

	Timings Timings
	Records []StepRecord

	// BlockIters counts iterations of augmented block solves.
	BlockIters int

	// OnStep, if non-nil, observes each completed step with the
	// midpoint velocity used to advance (for trajectory statistics
	// such as diffusion constants). The slice must not be retained.
	OnStep func(step int, u []float64, dt float64)

	// Obs receives the runner's metrics: per-phase wall seconds
	// (phase_seconds_total{phase="..."} for each PhaseMetricNames
	// entry), step and iteration counters, and the warm-start guess
	// error histogram. Nil means obs.Default.
	Obs *obs.Registry

	// Events, if non-nil, receives one structured "step" record per
	// completed time step and one "chunk" record per MRHS augmented
	// solve — the JSONL log from which a Table VI/VII-style phase
	// breakdown is reproducible (see README "Observability").
	Events *obs.EventLog

	// Trace, if non-nil, additionally receives every step's and
	// chunk's phase timings as trace spans — per-request attribution
	// when a stepper run serves one client's trajectory (the serve
	// tier's session workloads) rather than a global benchmark.
	Trace *obs.Trace
}

// NewRunner wraps the starting configuration.
func NewRunner(c Configuration, cfg Config) *Runner {
	cfg = cfg.withDefaults()
	return &Runner{cfg: cfg, cur: c, preStep: -1}
}

// Current returns the present configuration.
func (r *Runner) Current() Configuration { return r.cur }

// StepIndex returns the number of completed time steps.
func (r *Runner) StepIndex() int { return r.k }

// SkipTo sets the global step counter without touching the
// configuration. Use when resuming from a checkpoint whose state
// already reflects the completed steps: the per-step noise streams
// are indexed by the global counter, so the resumed run draws exactly
// the noise the interrupted run would have.
func (r *Runner) SkipTo(step int) {
	if step < r.k {
		panic("core: SkipTo cannot rewind")
	}
	r.k = step
	if step > r.onStepHigh {
		r.onStepHigh = step
	}
}

// Cfg returns the effective (defaulted) configuration.
func (r *Runner) Cfg() Config { return r.cfg }

// PhaseMetricNames maps the Timings fields to the phase label used in
// the obs metrics and the `<phase>_s` field keys of the JSONL step
// records, in PhaseOrder order.
var PhaseMetricNames = []string{
	"construct", "cheb_vectors", "calc_guesses",
	"cheb_single", "first_solve", "second_solve",
}

func (r *Runner) obsReg() *obs.Registry {
	if r.Obs != nil {
		return r.Obs
	}
	return obs.Default
}

// phaseDeltas returns the wall time each phase accumulated between
// two Timings snapshots, keyed by PhaseMetricNames.
func phaseDeltas(before, after Timings) map[string]time.Duration {
	return map[string]time.Duration{
		"construct":    after.Construct - before.Construct,
		"cheb_vectors": after.ChebVectors - before.ChebVectors,
		"calc_guesses": after.CalcGuesses - before.CalcGuesses,
		"cheb_single":  after.ChebSingle - before.ChebSingle,
		"first_solve":  after.FirstSolve - before.FirstSolve,
		"second_solve": after.SecondSolve - before.SecondSolve,
	}
}

// emitStep records one completed step's metrics and, when an event
// log is attached, its JSONL record. before is the Timings snapshot
// taken when the step's work began, so the deltas are this step's
// phase costs alone.
func (r *Runner) emitStep(rec StepRecord, alg string, before Timings) {
	reg := r.obsReg()
	deltas := phaseDeltas(before, r.Timings)
	for phase, d := range deltas {
		if d > 0 {
			reg.ObservePhase(phase, d)
			if r.Trace != nil {
				r.Trace.ObserveSpan(phase, d)
			}
		}
	}
	reg.Counter(obs.Label("core_steps_total", "alg", alg)).Inc()
	reg.Counter("core_first_solve_iterations_total").Add(int64(rec.FirstIters))
	reg.Counter("core_second_solve_iterations_total").Add(int64(rec.SecondIters))
	if rec.HadGuess {
		reg.Counter("core_warm_steps_total").Inc()
		if rec.GuessRelError > 0 {
			reg.Histogram("core_guess_rel_error", obs.ResidualBuckets).Observe(rec.GuessRelError)
		}
	}
	if r.Events != nil {
		f := map[string]any{
			"step":         rec.Step,
			"alg":          alg,
			"first_iters":  rec.FirstIters,
			"second_iters": rec.SecondIters,
			"had_guess":    rec.HadGuess,
		}
		if rec.GuessRelError > 0 {
			f["guess_rel_error"] = rec.GuessRelError
		}
		for phase, d := range deltas {
			if d > 0 {
				f[phase+"_s"] = d.Seconds()
			}
		}
		r.precondFields(f, rec.Step, before)
		r.Events.Emit("step", f)
	}
}

// emitChunk records the chunk-level work of one MRHS augmented solve
// (matrix construction at R_0, the m-vector Chebyshev evaluation, and
// the block solve), which precedes the per-step records of the chunk.
func (r *Runner) emitChunk(m int, st solver.BlockStats, before Timings) {
	reg := r.obsReg()
	deltas := phaseDeltas(before, r.Timings)
	for phase, d := range deltas {
		if d > 0 {
			reg.ObservePhase(phase, d)
			if r.Trace != nil {
				r.Trace.ObserveSpan(phase, d)
			}
		}
	}
	if r.Trace != nil {
		r.Trace.AddInt("cg_iterations", int64(st.Iterations))
		r.Trace.ObserveSpan("block_mul", time.Duration(st.MulSeconds*float64(time.Second)))
		r.Trace.ObserveSpan("block_vec", time.Duration(st.VecSeconds*float64(time.Second)))
	}
	reg.Counter("core_chunks_total").Inc()
	reg.Counter("core_block_iterations_total").Add(int64(st.Iterations))
	if st.Fallback {
		reg.Counter("core_block_fallbacks_total").Inc()
	}
	if r.Events != nil {
		f := map[string]any{
			"step":           r.k,
			"m":              m,
			"block_iters":    st.Iterations,
			"block_residual": st.Residual,
			// calc_guesses_s split into the block solve's multiplies
			// and its block-vector work.
			"block_mul_s": st.MulSeconds,
			"block_vec_s": st.VecSeconds,
		}
		if st.Fallback {
			f["fallback_columns"] = st.FallbackColumns
		}
		for phase, d := range deltas {
			if d > 0 {
				f[phase+"_s"] = d.Seconds()
			}
		}
		r.precondFields(f, r.k, before)
		r.Events.Emit("chunk", f)
	}
}

// noteFailure counts a non-converged solve before the step surfaces
// it as an error, so scripted runs see the failure in metrics even
// when they cannot read the process exit status.
func (r *Runner) noteFailure(kind string) {
	r.obsReg().Counter(obs.Label("core_solve_failures_total", "kind", kind)).Inc()
}

// vec returns the step buffer *b at the configuration's dimension.
// The contents are whatever the previous step left.
func (r *Runner) vec(b *[]float64) []float64 {
	if dim := r.cur.Dim(); len(*b) != dim {
		*b = make([]float64, dim)
	}
	return *b
}

// noise returns z_k for global step k, scaled by ForceScale, in the
// runner's noise buffer.
func (r *Runner) noise(k int) []float64 {
	z := r.vec(&r.buf.noise)
	rng.Substream(r.cfg.Seed, uint64(k)).FillNormal(z)
	if r.cfg.ForceScale != 1 {
		blas.Scal(r.cfg.ForceScale, z)
	}
	return z
}

// operator returns the multiply operator for a matrix assembled at
// configuration c: the distributed wrapper, the once-per-rebuild
// symmetric extraction, or the matrix itself.
func (r *Runner) operator(a *bcrs.Matrix, c Configuration) DistOp {
	if r.cfg.Distribute != nil {
		return r.cfg.Distribute(a, c)
	}
	if r.cfg.Symmetric {
		// Unchecked: resistance matrices are symmetric by assembly
		// (pair tensors are inserted with mirrored transposes), and
		// the O(nnz) verification would recur every rebuild. The
		// extraction inherits a's thread count.
		return bcrs.NewSymUnchecked(a)
	}
	return a
}

// sqrtOp builds the Brownian square-root operator over op, bracketing
// the spectrum from the concrete matrix (Gershgorin) and the
// configuration's floor.
func (r *Runner) sqrtOp(a *bcrs.Matrix, op DistOp) (*chebyshev.SqrtOp, error) {
	return chebyshev.NewSqrtAuto(op, a, r.cur.SpectrumFloor(), r.cfg.ChebOrder, r.cfg.ChebTol)
}

// solveOpts is what every solve of the step runs under: the block
// solve, the first solve (the FirstSolve hook receives it), the second
// solve and an ensemble's fused solves.
func (r *Runner) solveOpts() solver.Options {
	return solver.Options{Tol: r.cfg.Tol, MaxIter: r.cfg.MaxIter, Precond: r.pre}
}

// beginWindow opens a reuse window at the current step: the
// preconditioner built from a serves every solve until the next call.
// The caller's running phase timer covers it.
func (r *Runner) beginWindow(a *bcrs.Matrix) {
	t0 := time.Now()
	reg := r.obsReg()
	r.pre, r.preStep = nil, r.k
	if r.cfg.Precond != nil {
		r.pre = r.cfg.Precond(a)
	} else if err := r.ic.Refactor(a); err == nil {
		r.pre = &r.ic
	} else {
		// IC(0) broke down on this matrix: the window's solves run
		// unpreconditioned, which costs iterations, not correctness.
		reg.Counter("core_precond_fallbacks_total").Inc()
	}
	if r.pre != nil {
		reg.Counter("core_precond_rebuilds_total").Inc()
	}
	d := time.Since(t0)
	r.Timings.Factor += d
	reg.FloatCounter("core_precond_factor_seconds_total").Add(d.Seconds())
}

// stepWindow is Algorithm 1's window rule, shared with the ensemble's
// lockstep step: a new window every M steps and at a runner's first.
func (r *Runner) stepWindow(a *bcrs.Matrix) {
	if r.preStep < 0 || r.k%r.cfg.M == 0 {
		r.beginWindow(a)
	}
}

// precondFields adds to a step or chunk record the factor time spent
// since the before snapshot and the age in steps of the preconditioner
// the record's solves ran under, so a window going stale shows as
// iterations rising with age.
func (r *Runner) precondFields(f map[string]any, step int, before Timings) {
	if d := r.Timings.Factor - before.Factor; d > 0 {
		f["factor_s"] = d.Seconds()
	}
	if r.pre != nil {
		f["precond_age_steps"] = step - r.preStep
	}
}

// externalForce evaluates f^P at c, or nil when no force field is
// configured.
func (r *Runner) externalForce(c Configuration) []float64 {
	if r.cfg.ExternalForce == nil {
		return nil
	}
	return r.cfg.ExternalForce(c)
}

// negRHS builds the right-hand side -f^B + f^P. The minus on the
// Brownian term is the paper's convention (Eq. 5) and is statistically
// immaterial — S(R)z and -S(R)z are identically distributed. The
// external force must enter with the mobility sign, u = +R^{-1} f^P,
// so that overdamped particles move along the force. The result lives
// in the runner's right-hand-side buffer.
func (r *Runner) negRHS(fb, fp []float64) []float64 {
	rhs := r.vec(&r.buf.rhs)
	if fp == nil {
		for i, v := range fb {
			rhs[i] = -v
		}
		return rhs
	}
	if len(fp) != len(fb) {
		panic("core: external force dimension mismatch")
	}
	for i, v := range fb {
		rhs[i] = -v + fp[i]
	}
	return rhs
}

// firstSolve runs the configured first-solve strategy. The hook, when
// set, receives the concrete matrix (preconditioners need structure);
// the default path multiplies through the (possibly distributed)
// operator.
func (r *Runner) firstSolve(a *bcrs.Matrix, op DistOp, x, b []float64) solver.Stats {
	var st solver.Stats
	if r.cfg.FirstSolve != nil {
		st = r.cfg.FirstSolve(a, x, b, r.solveOpts())
	} else {
		st = solver.CG(op, x, b, r.solveOpts())
	}
	if r.audit != nil && st.Converged {
		r.audit("first", a, x, b)
	}
	return st
}

// StepOriginal performs one step of the original algorithm
// (Algorithm 1): build R_k, compute f_k = S(R_k) z_k, solve cold,
// take the midpoint, solve warm, advance.
func (r *Runner) StepOriginal() error {
	tm0 := r.Timings

	t0 := time.Now()
	a := r.cur.Build()
	r.Timings.Construct += time.Since(t0)
	op := r.operator(a, r.cur)

	t0 = time.Now()
	s, err := r.sqrtOp(a, op)
	if err != nil {
		return fmt.Errorf("core: step %d: %w", r.k, err)
	}
	fb := r.vec(&r.buf.fb)
	s.Apply(fb, r.noise(r.k))
	r.Timings.ChebSingle += time.Since(t0)
	rhs := r.negRHS(fb, r.externalForce(r.cur))

	// First solve, cold.
	u := r.vec(&r.buf.u)
	clear(u)
	t0 = time.Now()
	r.stepWindow(a)
	st1 := r.firstSolve(a, op, u, rhs)
	r.Timings.FirstSolve += time.Since(t0)
	r.cur.Recycle(a)
	if !st1.Converged {
		r.noteFailure("first_solve")
		return fmt.Errorf("core: step %d first solve stalled at residual %g", r.k, st1.Residual)
	}

	rec := StepRecord{Step: r.k, FirstIters: st1.Iterations}

	uHalf, st2, err := r.secondSolve(u, rhs)
	if err != nil {
		return err
	}
	rec.SecondIters = st2.Iterations
	r.Records = append(r.Records, rec)

	r.advance(uHalf)
	r.emitStep(rec, "original", tm0)
	return nil
}

// advance completes a time step: notifies the observer, displaces the
// configuration by the midpoint velocity, and bumps the counters.
func (r *Runner) advance(uHalf []float64) {
	if r.k >= r.onStepHigh {
		if r.OnStep != nil {
			r.OnStep(r.k, uHalf, r.cfg.Dt)
		}
		r.onStepHigh = r.k + 1
	}
	r.cur = r.cur.Displaced(uHalf, r.cfg.Dt)
	r.k++
	r.Timings.Steps++
}

// secondSolve builds the midpoint configuration from the current one
// using velocity u, assembles its matrix, and solves warm-started
// from u. It returns the midpoint velocity, in the runner's buffer for
// it.
func (r *Runner) secondSolve(u, rhs []float64) ([]float64, solver.Stats, error) {
	half := r.cur.Displaced(u, r.cfg.Dt/2)

	t0 := time.Now()
	aHalf := half.Build()
	r.Timings.Construct += time.Since(t0)
	opHalf := r.operator(aHalf, half)

	uHalf := r.vec(&r.buf.uHalf)
	copy(uHalf, u)
	t0 = time.Now()
	st := solver.CG(opHalf, uHalf, rhs, r.solveOpts())
	r.Timings.SecondSolve += time.Since(t0)
	if !st.Converged {
		r.noteFailure("second_solve")
		return nil, st, fmt.Errorf("core: step %d second solve stalled at residual %g", r.k, st.Residual)
	}
	if r.audit != nil {
		r.audit("second", aHalf, uHalf, rhs)
	}
	half.Recycle(aHalf)
	return uHalf, st, nil
}

// StepMRHS performs one chunk of the MRHS algorithm (Algorithm 2): up
// to min(M, steps) time steps driven by a single augmented block
// solve.
func (r *Runner) StepMRHS(steps int) error {
	m := r.cfg.M
	if steps < m {
		m = steps
	}
	if m < 1 {
		return nil
	}
	dim := r.cur.Dim()
	tm0 := r.Timings

	// Step 1: construct R_0.
	t0 := time.Now()
	a0 := r.cur.Build()
	r.Timings.Construct += time.Since(t0)
	op0 := r.operator(a0, r.cur)

	// Step 2: F^B = S(R_0) * Z — one Chebyshev evaluation with m
	// vectors (GSPMV).
	t0 = time.Now()
	s0, err := r.sqrtOp(a0, op0)
	if err != nil {
		return fmt.Errorf("core: chunk at step %d: %w", r.k, err)
	}
	z := multivec.New(dim, m)
	for j := 0; j < m; j++ {
		z.SetCol(j, r.noise(r.k+j))
	}
	fb := multivec.New(dim, m)
	s0.ApplyBlock(fb, z)
	r.Timings.ChebVectors += time.Since(t0)
	fb.Scale(-1) // the systems are R u = -f^B + f^P (see negRHS)
	if fp := r.externalForce(r.cur); fp != nil {
		// The chunk-start external force stands in for every column;
		// like R_0 it is a slowly-varying approximation that only
		// affects guess quality, never the converged solutions.
		for i := 0; i < dim; i++ {
			row := fb.Row(i)
			for j := range row {
				row[j] += fp[i]
			}
		}
	}

	// Step 3: solve the augmented system R_0 * U = -F^B.
	u := multivec.New(dim, m)
	t0 = time.Now()
	r.beginWindow(a0)
	blockOpts := r.solveOpts()
	if r.cfg.BlockPrecond != nil {
		if p := r.cfg.BlockPrecond(a0); p != nil {
			blockOpts.Precond = p
		}
	}
	stB := solver.BlockCGWithFallback(op0, u, fb, blockOpts)
	r.Timings.CalcGuesses += time.Since(t0)
	r.BlockIters += stB.Iterations
	if !stB.Converged {
		r.noteFailure("block_solve")
		if stB.Err != nil {
			return fmt.Errorf("core: chunk at step %d augmented solve: %w", r.k, stB.Err)
		}
		return fmt.Errorf("core: chunk at step %d augmented solve stalled at residual %g", r.k, stB.Residual)
	}
	r.emitChunk(m, stB, tm0)
	if r.audit != nil {
		x, b := make([]float64, dim), make([]float64, dim)
		for j := 0; j < m; j++ {
			u.Col(j, x)
			fb.Col(j, b)
			r.audit("block", a0, x, b)
		}
	}
	r.cur.Recycle(a0)

	// Steps 4-6: the first time step uses u_0 directly (its first
	// solve already happened inside the block solve).
	tmStep := r.Timings
	rhs0, u0 := r.vec(&r.buf.rhs), r.vec(&r.buf.u)
	fb.Col(0, rhs0)
	u.Col(0, u0)
	rec := StepRecord{Step: r.k, FirstIters: 0, HadGuess: true}
	uHalf, st2, err := r.secondSolve(u0, rhs0)
	if err != nil {
		return err
	}
	rec.SecondIters = st2.Iterations
	r.Records = append(r.Records, rec)
	r.advance(uHalf)
	r.emitStep(rec, "mrhs", tmStep)

	// Steps 7-14: remaining m-1 steps, warm-started from the
	// augmented solutions.
	for j := 1; j < m; j++ {
		tmStep := r.Timings
		t0 = time.Now()
		ak := r.cur.Build()
		r.Timings.Construct += time.Since(t0)
		opk := r.operator(ak, r.cur)

		t0 = time.Now()
		sk, err := r.sqrtOp(ak, opk)
		if err != nil {
			return fmt.Errorf("core: step %d: %w", r.k, err)
		}
		fbk, zk := r.vec(&r.buf.fb), r.vec(&r.buf.noise)
		z.Col(j, zk) // step r.k's noise, drawn above
		sk.Apply(fbk, zk)
		r.Timings.ChebSingle += time.Since(t0)
		rhs := r.negRHS(fbk, r.externalForce(r.cur))

		guess, uk := r.vec(&r.buf.guess), r.vec(&r.buf.u)
		u.Col(j, guess)
		copy(uk, guess)
		t0 = time.Now()
		st1 := r.firstSolve(ak, opk, uk, rhs)
		r.Timings.FirstSolve += time.Since(t0)
		r.cur.Recycle(ak)
		if !st1.Converged {
			r.noteFailure("first_solve")
			return fmt.Errorf("core: step %d first solve stalled at residual %g", r.k, st1.Residual)
		}

		rec := StepRecord{Step: r.k, FirstIters: st1.Iterations, HadGuess: true}
		rec.GuessRelError = relError(uk, guess)

		uHalf, st2, err := r.secondSolve(uk, rhs)
		if err != nil {
			return err
		}
		rec.SecondIters = st2.Iterations
		r.Records = append(r.Records, rec)

		r.advance(uHalf)
		r.emitStep(rec, "mrhs", tmStep)
	}
	return nil
}

// relError returns ||sol - guess|| / ||sol||.
func relError(sol, guess []float64) float64 {
	var num, den float64
	for i := range sol {
		d := sol[i] - guess[i]
		num += d * d
		den += sol[i] * sol[i]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// RunOriginal advances n steps with the original algorithm. Each step
// runs under fault recovery (see Config.Recovery): a transport fault
// restores the last snapshot and replays the step.
func (r *Runner) RunOriginal(n int) error {
	for i := 0; i < n; i++ {
		if err := r.runRecoverable("step", r.StepOriginal); err != nil {
			return err
		}
	}
	return nil
}

// RunMRHS advances n steps with the MRHS algorithm in chunks of M.
// Each chunk runs under fault recovery (see Config.Recovery): a
// transport fault anywhere in the chunk — the block solve or any of
// its m steps — rolls back to the chunk start and replays; the noise
// streams are indexed by the global step counter, so the replay
// integrates the identical trajectory.
func (r *Runner) RunMRHS(n int) error {
	for n > 0 {
		chunk := r.cfg.M
		if chunk > n {
			chunk = n
		}
		if err := r.runRecoverable("chunk", func() error { return r.StepMRHS(chunk) }); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}
