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
	// Tol is the solver relative-residual tolerance (paper: 1e-6). An
	// MRHS chunk's block solve stops looser after a runner's first
	// chunk, at what its guesses can use (StepMRHS); column 0 still
	// meets Tol.
	Tol float64
	// MaxIter caps solver iterations (0: solver default).
	MaxIter int
	// ChebOrder caps the multiplies of one Brownian force evaluation
	// (paper: 30): the order of the Chebyshev series on the paper's
	// path, the Lanczos iterations on the preconditioned one (see
	// Precond). A Lanczos column that reaches it is counted in
	// core_sqrt_unconverged_total and its step or chunk record.
	ChebOrder int
	// Seed drives the noise streams; step k's noise depends only on
	// (Seed, k), so the original and MRHS algorithms integrate
	// identical noise histories.
	Seed uint64
	// FirstSolve, if non-nil, replaces plain CG for each step's
	// first solve. It receives the step's matrix, the right-hand
	// side, and x holding the initial guess (zero for the original
	// algorithm, the direct velocity under a factor window, which
	// already solves the system) and, in its options, the window's
	// preconditioner. A chunk's step 0 has no first solve of its own:
	// its velocity is column 0 of the chunk's augmented solution, and
	// the CG that finishes that column is the chunk's, not the hook's.
	// The matrix is valid for the call only: the stepper recycles it
	// after.
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
	// step a runner takes) and charged to that step's first solve; it
	// opens before the step's Brownian force. Nil means block IC(0)
	// (solver.IC0, refactored in place; a breakdown leaves that window
	// unpreconditioned and is counted, the step goes on). A nil result
	// means an unpreconditioned window: NoPrecond is the paper's
	// setting. The matrix is valid for the call only, so the result must
	// copy what it keeps (solver.IC0 does). It is one preconditioner per
	// solve, whatever its width: a block solve sweeps it over all m
	// columns by one ApplyBlock per iteration.
	//
	// A window preconditioner that is also a chebyshev.Factor (IC(0)
	// is) preconditions the Brownian force too, and samples the first
	// velocity with it (the direct velocity): u =
	// -M^{-1}*L*(L^{-1} R L^{-T})^{-1/2}*z by chebyshev.PrecondInvSqrt
	// and one ApplyBlock, and f^B = -R*u = L*(L^{-1} R L^{-T})^{1/2}*z by
	// one multiply, a force of covariance R exactly whatever the factor,
	// to chebyshev.DefaultTol, with R*u = -f^B to rounding. Algorithm 1's
	// steps then run no first solve unless FirstSolve asks for one.
	// Algorithm 2 under such a window draws its chunk's augmented
	// solution the same way, m columns at once, and runs no block solve
	// (the direct guesses): column 0 is step 0's direct velocity, columns
	// 1..m-1 the guesses its later steps solve warm from, each on the
	// right-hand side of its own step's direct velocity — bitwise
	// Algorithm 1's at the same configuration. Any other window —
	// NoPrecond, a broken-down IC(0), a preconditioner without a factor —
	// takes the paper's order-ChebOrder Chebyshev series on
	// [SpectrumFloor, Gershgorin], Algorithm 1's cold first solve and
	// Algorithm 2's block solve.
	Precond func(a *bcrs.Matrix) solver.Preconditioner
	// BlockPrecond, if non-nil, is called with each chunk's R_0 where the
	// chunk's guesses are made — after its m-vector square root, before
	// the block solve or the direct guesses' ApplyBlock — and marks that
	// point: the traced benchmark tags the multiplies that follow as the
	// guesses'. A non-nil result preconditions the chunk's block solve in
	// place of the window's preconditioner; a chunk that draws the direct
	// guesses runs no block solve and ignores it. The matrix is valid for
	// the call only.
	BlockPrecond func(a *bcrs.Matrix) solver.Preconditioner
	// Recovery, if non-nil, arms crash recovery in the Run loops:
	// transport faults that unwind out of a step or chunk restore the
	// last snapshot and replay it (see Recovery). Nil converts fault
	// panics to errors but does not replay.
	Recovery *Recovery
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
	return c
}

// Timings accumulates wall time per phase, mirroring the rows of the
// paper's Tables VI and VII.
type Timings struct {
	Construct   time.Duration // matrix assembly
	ChebVectors time.Duration // the chunk's m-vector square root (MRHS only)
	CalcGuesses time.Duration // the chunk's guesses from it (MRHS only)
	ChebSingle  time.Duration // S(R_k)*z_k single vector
	FirstSolve  time.Duration // step solve (with guess under MRHS)
	SecondSolve time.Duration // midpoint corrector solve
	// Factor is the time spent building the windows' preconditioners.
	// It is not a phase of its own: it is already inside CalcGuesses
	// (Algorithm 2) or FirstSolve (Algorithm 1), which pay for the
	// window although it opens before the Brownian force that also runs
	// through it.
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
	// Direct reports whether the first velocity was sampled through the
	// window's factor rather than solved for (see Config.Precond): every
	// step of Algorithm 1 under a factor window, and step 0 of a chunk
	// whose guesses were drawn directly.
	Direct bool
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

	// guessErr is the smallest GuessRelError of the last completed
	// chunk's warm steps (0: there were none), from which the next block
	// solve sets its tolerance (blockTol).
	guessErr float64

	// audit, set by tests, sees every converged solve's system and
	// solution: a chunk's direct guesses column by column, of its block
	// solve the column finished to Tol.
	audit func(kind string, a *bcrs.Matrix, x, b []float64)

	// buf holds the vectors of one time step — noise, Brownian force,
	// right-hand side, first-solve guess and solution, midpoint
	// velocity — reused from step to step. None outlives its step:
	// OnStep must not retain its slice.
	buf struct{ noise, fb, rhs, guess, u, uHalf []float64 }
	// noiseRNG is the stream z_k is drawn from, reset to step k's
	// substream for each draw.
	noiseRNG rng.Stream
	// one holds the width-1 headers a single-vector Brownian force
	// evaluation wraps buf.fb and its noise in, and the direct velocity
	// its u.
	one struct{ y, z, u multivec.MultiVec }
	// chunk holds StepMRHS's three n×m blocks — noise Z, Brownian forces
	// F^B, augmented solutions U — reshaped chunk to chunk (a last chunk
	// may be narrower); none outlives its chunk.
	chunk struct{ z, fb, u multivec.MultiVec }
	// The storage of every solve and Brownian force, allocated once.
	solve solver.Workspace
	sqrt  chebyshev.Workspace
	met   runnerMetrics

	Timings Timings
	Records []StepRecord

	// BlockIters counts iterations of augmented block solves; chunks
	// that drew their guesses directly add none.
	BlockIters int

	// OnStep, if non-nil, observes each completed step with the
	// midpoint velocity used to advance (mrhs-sim -xyz writes a
	// trajectory frame from it). The slice must not be retained.
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

// GuessErr returns the smallest guess error of the last completed
// chunk's warm steps (0: none yet), from which the next block solve
// sets its tolerance. A checkpoint carries it, and SetGuessErr restores
// it next to SkipTo, so a resumed run solves that block as the
// uninterrupted run does.
func (r *Runner) GuessErr() float64 { return r.guessErr }

// SetGuessErr restores the value GuessErr returned when the checkpoint
// being resumed from was written.
func (r *Runner) SetGuessErr(e float64) { r.guessErr = e }

// Cfg returns the effective (defaulted) configuration.
func (r *Runner) Cfg() Config { return r.cfg }

// PhaseMetricNames maps the Timings fields to the phase label used in
// the obs metrics and the `<phase>_s` field keys of the JSONL step
// records, in PhaseOrder order.
var PhaseMetricNames = [...]string{
	"construct", "cheb_vectors", "calc_guesses",
	"cheb_single", "first_solve", "second_solve",
}

// phaseDeltas holds the wall time of each phase in PhaseMetricNames
// order.
type phaseDeltas [len(PhaseMetricNames)]time.Duration

// runnerMetrics holds the runner's labelled metrics in reg, each
// resolved at its first use, so a step or chunk formats no metric name.
type runnerMetrics struct {
	reg    *obs.Registry
	phases [len(PhaseMetricNames)]*obs.Phase
	steps  [2]*obs.Counter // core_steps_total, alg "original" and "mrhs"
}

func (r *Runner) obsReg() *obs.Registry {
	if r.Obs != nil {
		return r.Obs
	}
	return obs.Default
}

// metrics returns the runner's metric handles, resolved anew when Obs
// has changed since the last call.
func (r *Runner) metrics() *runnerMetrics {
	if reg := r.obsReg(); r.met.reg != reg {
		r.met = runnerMetrics{reg: reg}
	}
	return &r.met
}

// observePhases returns the wall time each phase accumulated since the
// before snapshot and observes the nonzero ones in the phase metrics.
func (r *Runner) observePhases(before Timings) phaseDeltas {
	after := r.Timings
	deltas := phaseDeltas{
		after.Construct - before.Construct,
		after.ChebVectors - before.ChebVectors,
		after.CalcGuesses - before.CalcGuesses,
		after.ChebSingle - before.ChebSingle,
		after.FirstSolve - before.FirstSolve,
		after.SecondSolve - before.SecondSolve,
	}
	m := r.metrics()
	for i, d := range deltas {
		if d > 0 {
			if m.phases[i] == nil {
				m.phases[i] = m.reg.Phase(PhaseMetricNames[i])
			}
			m.phases[i].Observe(d)
		}
	}
	return deltas
}

// emitStep records one completed step's metrics and, when an event
// log is attached, its JSONL record. before is the Timings snapshot
// taken when the step's work began, so the deltas are this step's
// phase costs alone; sq is the step's own square root, nil for a
// chunk's first step, whose force came from the chunk's.
func (r *Runner) emitStep(rec StepRecord, sq *chebyshev.Stats, before Timings) {
	reg := r.obsReg()
	if sq != nil {
		r.countSqrt(*sq)
	}
	deltas := r.observePhases(before)
	alg, steps := "original", &r.metrics().steps[0]
	if rec.HadGuess {
		alg, steps = "mrhs", &r.metrics().steps[1]
	}
	if *steps == nil {
		*steps = reg.Counter(obs.Label("core_steps_total", "alg", alg))
	}
	(*steps).Inc()
	reg.Counter("core_first_solve_iterations_total").Add(int64(rec.FirstIters))
	velocity := "solve"
	if rec.Direct {
		velocity = "direct"
		reg.Counter("core_direct_velocity_steps_total").Inc()
	}
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
			"velocity":     velocity,
		}
		if rec.GuessRelError > 0 {
			f["guess_rel_error"] = rec.GuessRelError
		}
		if sq != nil {
			sqrtFields(f, *sq)
		}
		r.phaseFields(f, deltas, rec.Step, before)
		r.Events.Emit("step", f)
	}
}

// chunkGuesses says how a chunk made its guesses: drawn directly, or by
// block CG stopped at tol, column 0 then finished to Tol by a warm CG of
// finish iterations.
type chunkGuesses struct {
	direct bool
	block  solver.BlockStats
	tol    float64
	finish int
}

// emitChunk records the chunk-level work of one MRHS chunk (matrix
// construction at R_0, the m-vector square root, and the guesses),
// which precedes the per-step records of the chunk.
func (r *Runner) emitChunk(m int, g chunkGuesses, sq chebyshev.Stats, before Timings) {
	reg := r.obsReg()
	r.countSqrt(sq)
	deltas := r.observePhases(before)
	st := g.block
	reg.Counter("core_chunks_total").Inc()
	if g.direct {
		reg.Counter("core_direct_guess_chunks_total").Inc()
	} else {
		reg.Counter("core_block_iterations_total").Add(int64(st.Iterations))
	}
	if r.Events != nil {
		f := map[string]any{"step": r.k, "m": m, "guesses": "direct"}
		if !g.direct {
			f["guesses"] = "block"
			f["block_tol"] = g.tol
			f["block_iters"] = st.Iterations
			f["block_residual"] = st.Residual
			// calc_guesses_s split into the block solve's multiplies and
			// its block-vector work; column 0's finish is the rest.
			f["block_mul_s"] = st.MulSeconds
			f["block_vec_s"] = st.VecSeconds
			if g.finish > 0 {
				f["finish_iters"] = g.finish
			}
			if st.Dropped > 0 {
				f["block_dropped"] = st.Dropped
			}
		}
		sqrtFields(f, sq)
		r.phaseFields(f, deltas, r.k, before)
		r.Events.Emit("chunk", f)
	}
}

// countSqrt counts one square-root evaluation's multiplies (a block's
// widest column's) and the columns that ran out of them.
func (r *Runner) countSqrt(sq chebyshev.Stats) {
	reg := r.obsReg()
	reg.Counter("core_sqrt_iterations_total").Add(int64(sq.Iterations))
	if sq.Unconverged > 0 {
		reg.Counter("core_sqrt_unconverged_total").Add(int64(sq.Unconverged))
	}
}

// sqrtFields adds a square root's multiplies to a step or chunk record,
// and the columns that reached ChebOrder unconverged when there are any.
func sqrtFields(f map[string]any, sq chebyshev.Stats) {
	f["sqrt_iters"] = sq.Iterations
	if sq.Unconverged > 0 {
		f["sqrt_unconverged"] = sq.Unconverged
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

// noise returns z_k for global step k in the runner's noise buffer.
func (r *Runner) noise(k int) []float64 {
	z := r.vec(&r.buf.noise)
	r.noiseRNG.Reset(r.cfg.Seed, uint64(k))
	r.noiseRNG.FillNormal(z)
	return z
}

// operator returns the multiply operator for a matrix assembled at
// configuration c: the distributed wrapper, or the matrix itself.
func (r *Runner) operator(a *bcrs.Matrix, c Configuration) DistOp {
	if r.cfg.Distribute != nil {
		return r.cfg.Distribute(a, c)
	}
	return a
}

// brownian computes the Brownian forces Y = S*Z of the matrix a by the
// paper's series on the spectrum bracketed from a (Gershgorin) and the
// configuration's floor, multiplying through op: the force of a window
// without a factor. A factor's forces are the inverse root's
// (directVelocity, directGuesses).
func (r *Runner) brownian(a *bcrs.Matrix, op DistOp, y, z *multivec.MultiVec) (chebyshev.Stats, error) {
	return chebyshev.SeriesSqrt(&r.sqrt, op, a, r.cur.SpectrumFloor(), r.cfg.ChebOrder, y, z)
}

// brownianOne is brownian on one vector: fb = S*z.
func (r *Runner) brownianOne(a *bcrs.Matrix, op DistOp, fb, z []float64) (chebyshev.Stats, error) {
	r.one.y = multivec.MultiVec{N: len(fb), M: 1, Data: fb}
	r.one.z = multivec.MultiVec{N: len(z), M: 1, Data: z}
	return r.brownian(a, op, &r.one.y, &r.one.z)
}

// directVelocity samples a step's first velocity through the window's
// factor f = L: y' = L*X^{-1/2}*z with X = L^{-1} R L^{-T}
// (chebyshev.PrecondInvSqrt), u = -M^{-1} y' and rhs = R*u through op.
// Then -rhs = L*X^{1/2}*z is a Brownian force of covariance R, to the
// root's tolerance, and R*u = rhs holds to rounding: u needs no solve.
// The Brownian force's minus is the paper's sign (Eq. 5).
func (r *Runner) directVelocity(f chebyshev.Factor, op DistOp, u, rhs, z []float64) (chebyshev.Stats, error) {
	yp := r.vec(&r.buf.fb)
	r.one.y = multivec.MultiVec{N: len(yp), M: 1, Data: yp}
	r.one.z = multivec.MultiVec{N: len(z), M: 1, Data: z}
	sq, err := chebyshev.PrecondInvSqrt(&r.sqrt, op, f, &r.one.y, &r.one.z, r.cfg.ChebOrder, 0)
	if err != nil {
		return chebyshev.Stats{}, err
	}
	r.one.u = multivec.MultiVec{N: len(u), M: 1, Data: u}
	f.ApplyBlock(&r.one.u, &r.one.y)
	blas.Scal(-1, u)
	op.MulVec(rhs, u)
	return sq, nil
}

// solveOpts is what every solve of the step runs under: the block
// solve, the first solve (the FirstSolve hook receives it) and the
// second solve.
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

// phaseFields adds to a step or chunk record each phase's seconds, the
// factor time spent since the before snapshot and the age in steps of
// the preconditioner the record's solves ran under, so a window going
// stale shows as iterations rising with age.
func (r *Runner) phaseFields(f map[string]any, deltas phaseDeltas, step int, before Timings) {
	for i, d := range deltas {
		if d > 0 {
			f[PhaseMetricNames[i]+"_s"] = d.Seconds()
		}
	}
	if d := r.Timings.Factor - before.Factor; d > 0 {
		f["factor_s"] = d.Seconds()
	}
	if r.pre != nil {
		f["precond_age_steps"] = step - r.preStep
	}
}

// firstSolve runs the configured first-solve strategy. The hook, when
// set, receives the concrete matrix (preconditioners need structure);
// the default path multiplies through the (possibly distributed)
// operator, unless solved says that x already solves the system — b
// was made as a*x — when it runs nothing.
func (r *Runner) firstSolve(a *bcrs.Matrix, op DistOp, x, b []float64, solved bool) solver.Stats {
	var st solver.Stats
	switch {
	case r.cfg.FirstSolve != nil:
		st = r.cfg.FirstSolve(a, x, b, r.solveOpts())
	case solved:
		st.Converged = true
	default:
		st = solver.CGWith(&r.solve, op, x, b, r.solveOpts())
	}
	if r.audit != nil && st.Converged {
		r.audit("first", a, x, b)
	}
	return st
}

// StepOriginal performs one step of the original algorithm
// (Algorithm 1): build R_k, compute f_k = S(R_k) z_k, solve cold,
// take the midpoint, solve warm, advance. Under a window with a factor
// the first velocity is sampled directly (directVelocity) and no first
// solve runs.
func (r *Runner) StepOriginal() error {
	return r.step(nil, nil)
}

// step advances one time step on noise z, or, when z is nil, on the
// step's own draw, timed with its Brownian force. Under a factor the
// force is the direct velocity's, else the paper's series. A nil guess
// is Algorithm 1's step: a window opens every M steps and at a runner's
// first, and the first velocity is the direct one under a factor, else
// a cold solve. Any other guess is a chunk's warm step under the
// chunk's window: its first solve starts from the guess, even where the
// direct velocity already solved the system, since that solve is what
// Algorithm 2 measures.
func (r *Runner) step(z, guess []float64) error {
	before := r.Timings

	t0 := time.Now()
	a := r.cur.Build()
	r.Timings.Construct += time.Since(t0)
	op := r.operator(a, r.cur)

	if guess == nil && (r.preStep < 0 || r.k%r.cfg.M == 0) {
		// Algorithm 1's window rule. The Brownian force runs through the
		// window, the first solve pays for it.
		t0 = time.Now()
		r.beginWindow(a)
		r.Timings.FirstSolve += time.Since(t0)
	}
	t0 = time.Now()
	if z == nil {
		z = r.noise(r.k)
	}
	u, rhs := r.vec(&r.buf.u), r.vec(&r.buf.rhs)
	f, factored := r.pre.(chebyshev.Factor)
	var sq chebyshev.Stats
	var err error
	if factored {
		sq, err = r.directVelocity(f, op, u, rhs, z)
	} else {
		fb := r.vec(&r.buf.fb)
		sq, err = r.brownianOne(a, op, fb, z)
		// R u = -f^B: the paper's sign (Eq. 5), statistically immaterial,
		// as S(R)z and -S(R)z are identically distributed.
		for i, v := range fb {
			rhs[i] = -v
		}
		if guess == nil {
			clear(u) // the first solve starts cold
		}
	}
	if err != nil {
		return fmt.Errorf("core: step %d: %w", r.k, err)
	}
	r.Timings.ChebSingle += time.Since(t0)
	copy(u, guess) // a warm step's first solve starts from its guess
	direct := factored && guess == nil

	t0 = time.Now()
	st1 := r.firstSolve(a, op, u, rhs, direct)
	r.Timings.FirstSolve += time.Since(t0)
	r.cur.Recycle(a)
	if !st1.Converged {
		r.noteFailure("first_solve")
		return fmt.Errorf("core: step %d first solve stalled at residual %g", r.k, st1.Residual)
	}
	rec := StepRecord{Step: r.k, FirstIters: st1.Iterations, HadGuess: guess != nil, Direct: direct}
	if guess != nil {
		rec.GuessRelError = relError(u, guess)
	}
	return r.finish(rec, u, rhs, &sq, before)
}

// finish completes every step from its first velocity u, R*u = rhs: it
// builds the midpoint configuration, assembles its matrix, solves warm
// from u, records the step, advances by the midpoint velocity and emits
// the step, whose algorithm is "mrhs" when it had a guess. sq is the
// step's own square root, nil for a chunk's step 0, whose force came
// from the chunk's; before is the Timings snapshot taken when the step
// began.
func (r *Runner) finish(rec StepRecord, u, rhs []float64, sq *chebyshev.Stats, before Timings) error {
	half := r.cur.Displaced(u, r.cfg.Dt/2)

	t0 := time.Now()
	aHalf := half.Build()
	r.Timings.Construct += time.Since(t0)
	opHalf := r.operator(aHalf, half)

	uHalf := r.vec(&r.buf.uHalf)
	copy(uHalf, u)
	t0 = time.Now()
	st := solver.CGWith(&r.solve, opHalf, uHalf, rhs, r.solveOpts())
	r.Timings.SecondSolve += time.Since(t0)
	if !st.Converged {
		r.noteFailure("second_solve")
		return fmt.Errorf("core: step %d second solve stalled at residual %g", r.k, st.Residual)
	}
	if r.audit != nil {
		r.audit("second", aHalf, uHalf, rhs)
	}
	half.Recycle(aHalf)

	rec.SecondIters = st.Iterations
	r.Records = append(r.Records, rec)
	r.advance(uHalf)
	r.emitStep(rec, sq, before)
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

// StepMRHS performs one chunk of the MRHS algorithm (Algorithm 2): up
// to min(M, steps) time steps driven by one augmented system at R_0,
// solved only as far as its guesses are used. Under a factor window
// the chunk draws the system's solution directly (directGuesses);
// otherwise block CG stops at blockTol and column 0, the only one used
// as a solution, is finished to Tol (blockGuesses). Step 0 ends in
// finish from column 0; steps 1..m-1 are step's warm steps.
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

	// The chunk's window, which the Brownian forces run through and the
	// guesses pay for.
	t0 = time.Now()
	r.beginWindow(a0)
	r.Timings.CalcGuesses += time.Since(t0)
	f, direct := r.pre.(chebyshev.Factor)

	// Step 2: one square-root evaluation with m vectors (GSPMV): F^B =
	// S(R_0)*Z, or for the direct guesses Y' = L*X_0^{-1/2}*Z.
	t0 = time.Now()
	z := &r.chunk.z
	z.Reshape(dim, m)
	for j := 0; j < m; j++ {
		z.SetCol(j, r.noise(r.k+j))
	}
	fb := &r.chunk.fb
	fb.Reshape(dim, m) // the square root writes all of it
	var sq chebyshev.Stats
	var err error
	if direct {
		sq, err = chebyshev.PrecondInvSqrt(&r.sqrt, op0, f, fb, z, r.cfg.ChebOrder, 0)
	} else {
		sq, err = r.brownian(a0, op0, fb, z)
	}
	if err != nil {
		return fmt.Errorf("core: chunk at step %d: %w", r.k, err)
	}
	r.Timings.ChebVectors += time.Since(t0)

	// Step 3: the guesses U, with step 0's velocity u_0 and right-hand
	// side.
	t0 = time.Now()
	var bp solver.Preconditioner
	if r.cfg.BlockPrecond != nil {
		bp = r.cfg.BlockPrecond(a0)
	}
	u := &r.chunk.u
	u.Reshape(dim, m)
	rhs0, u0 := r.vec(&r.buf.rhs), r.vec(&r.buf.u)
	g := chunkGuesses{direct: direct}
	if direct {
		r.directGuesses(f, op0, u, fb, u0, rhs0)
	} else {
		fb.Scale(-1) // the systems are R u = -f^B (Eq. 5's sign)
		g, err = r.blockGuesses(op0, u, fb, u0, rhs0, bp)
	}
	r.Timings.CalcGuesses += time.Since(t0)
	if err != nil {
		return err
	}
	r.emitChunk(m, g, sq, tm0)
	if r.audit != nil {
		r.auditGuesses(a0, u, fb, u0, rhs0, g.direct)
	}
	r.cur.Recycle(a0)

	// Steps 4-6: the first time step uses u_0 directly (its first
	// solve already happened in making the guesses).
	rec := StepRecord{Step: r.k, HadGuess: true, Direct: g.direct}
	if err := r.finish(rec, u0, rhs0, nil, r.Timings); err != nil {
		return err
	}

	// Steps 7-14: remaining m-1 steps, warm-started from the
	// augmented solutions.
	guessErr := 0.0
	for j := 1; j < m; j++ {
		zk, guess := r.vec(&r.buf.noise), r.vec(&r.buf.guess)
		z.Col(j, zk) // step r.k's noise, drawn above
		u.Col(j, guess)
		if err := r.step(zk, guess); err != nil {
			return err
		}
		if e := r.Records[len(r.Records)-1].GuessRelError; e > 0 && (guessErr == 0 || e < guessErr) {
			guessErr = e
		}
	}
	r.guessErr = guessErr
	return nil
}

// guessTolFactor is c in blockTol's c*min GuessRelError: drift moves a
// step's solution that far from its guess anyway, so a column solved to
// a tenth of it costs its first solve under one iteration. Measured in
// DESIGN §9, "The direct guesses".
const guessTolFactor = 0.1

// blockTol is the tolerance a chunk's block solve stops at: Tol for a
// runner's first chunk, else guessTolFactor times the smallest guess
// error of the previous chunk's warm steps, never below Tol.
func (r *Runner) blockTol() float64 {
	return max(r.cfg.Tol, guessTolFactor*r.guessErr)
}

// directGuesses draws the chunk's augmented solution from the inverse
// root y = L*X_0^{-1/2}*Z its square root left: U = -M^{-1}*y, whose
// column j is Algorithm 1's direct velocity for z_j at R_0
// (directVelocity), and step 0's right-hand side rhs0 = R_0*u_0 by one
// multiply, so R_0*u_0 = -f^B_0 to rounding and F^B's other columns are
// never formed.
func (r *Runner) directGuesses(f chebyshev.Factor, op0 DistOp, u, y *multivec.MultiVec, u0, rhs0 []float64) {
	f.ApplyBlock(u, y)
	u.Scale(-1)
	u.Col(0, u0)
	op0.MulVec(rhs0, u0)
}

// blockGuesses solves the augmented system R_0*U = B by block CG from
// zero, under the window's preconditioner or bp when it is not nil, to
// blockTol: the guesses need no more. Column 0 is step 0's velocity, so
// a warm CG finishes it to Tol. u0 and rhs0 receive column 0.
func (r *Runner) blockGuesses(op0 DistOp, u, b *multivec.MultiVec, u0, rhs0 []float64, bp solver.Preconditioner) (chunkGuesses, error) {
	opts := r.solveOpts()
	if bp != nil {
		opts.Precond = bp
	}
	opts.Tol = r.blockTol()
	u.Zero()
	st := solver.BlockCG(&r.solve, op0, u, b, opts)
	r.BlockIters += st.Iterations
	g := chunkGuesses{block: st, tol: opts.Tol}
	if !st.Converged {
		r.noteFailure("block_solve")
		if st.Err != nil {
			return g, fmt.Errorf("core: chunk at step %d augmented solve: %w", r.k, st.Err)
		}
		return g, fmt.Errorf("core: chunk at step %d augmented solve stalled at residual %g", r.k, st.Residual)
	}
	u.Col(0, u0)
	b.Col(0, rhs0)
	if opts.Tol > r.cfg.Tol {
		opts.Tol = r.cfg.Tol
		st0 := solver.CGWith(&r.solve, op0, u0, rhs0, opts)
		g.finish = st0.Iterations
		if !st0.Converged {
			r.noteFailure("block_solve")
			return g, fmt.Errorf("core: chunk at step %d augmented solve's column 0 stalled at residual %g", r.k, st0.Residual)
		}
	}
	return g, nil
}

// auditGuesses hands the audit hook what a chunk solved to Tol, with
// its system at R_0: every column of the direct guesses, whose
// right-hand side is R_0*u_j by a multiply made here for the purpose,
// or a block solve's finished column 0.
func (r *Runner) auditGuesses(a0 *bcrs.Matrix, u, b *multivec.MultiVec, u0, rhs0 []float64, direct bool) {
	if !direct {
		r.audit("block", a0, u0, rhs0)
		return
	}
	a0.Mul(b, u)
	x, bj := make([]float64, u.N), make([]float64, u.N)
	for j := 0; j < u.M; j++ {
		u.Col(j, x)
		b.Col(j, bj)
		r.audit("block", a0, x, bj)
	}
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
