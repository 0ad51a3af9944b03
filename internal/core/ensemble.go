package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bcrs"
	"repro/internal/obs"
	"repro/internal/solver"
)

// EnsembleOptions configures a lockstep trajectory ensemble.
type EnsembleOptions struct {
	// Seeds gives each member its own noise stream; the member count K
	// is len(Seeds). Distinct seeds make statistically independent
	// trajectories from one starting configuration.
	Seeds []uint64
	// Perturb, if non-nil, derives member i's starting configuration
	// from the shared base (e.g. a cloned system with jittered
	// positions). Members share the base unperturbed.
	Perturb func(member int, base Configuration) Configuration
}

// Comparable is the optional Configuration extension divergence
// statistics need: a root-mean-square distance between two snapshots
// of the same system (minimum-image for periodic geometries).
type Comparable interface {
	RMSD(other Configuration) float64
}

// DivergencePoint is one step's cross-member divergence measurement.
type DivergencePoint struct {
	// Step is the number of completed lockstep steps.
	Step int
	// MeanRMSD and MaxRMSD summarize the RMSD over all member pairs.
	MeanRMSD, MaxRMSD float64
}

// EnsembleRunner advances K independent trajectories in lockstep,
// fusing the K first solves and the K second solves of every time
// step into single MultiCG calls — Krasnopolsky's ensemble fusion
// (PAPERS.md: arXiv 1711.10622, 1907.12874). Each member keeps its
// own configuration, matrix, noise stream, and convergence record;
// only the matrix *traffic* is shared, so the fused GSPMV runs at
// kernel width >= K regardless of request concurrency. Because every
// column of the fused solve multiplies through its own member's
// operator (solver.Ensemble), each member's trajectory is
// bitwise-identical to the same member run alone with RunOriginal —
// the equivalence the ensemble tests pin down.
type EnsembleRunner struct {
	members []*Runner
	ws      *solver.MultiCGWorkspace // both fused solves of every step run in it

	// Timings accumulates the ensemble's own phase wall time; the
	// fused solve phases cannot be attributed to single members.
	Timings Timings

	// Divergence holds one point per completed step when the member
	// configurations implement Comparable and K >= 2.
	Divergence []DivergencePoint

	// Obs, Events, and Trace mirror the Runner fields: metrics
	// registry (nil means obs.Default), JSONL event log, and
	// per-request trace.
	Obs    *obs.Registry
	Events *obs.EventLog
	Trace  *obs.Trace
}

// NewEnsemble builds a K-member lockstep ensemble from one starting
// configuration. The per-member stepper configs differ only in their
// noise seed. Config hooks that replace or wrap the per-step solves
// (FirstSolve, Recovery) are incompatible with solve fusion and are
// rejected.
func NewEnsemble(base Configuration, cfg Config, opts EnsembleOptions) (*EnsembleRunner, error) {
	if len(opts.Seeds) == 0 {
		return nil, fmt.Errorf("core: ensemble needs at least one member seed")
	}
	if cfg.FirstSolve != nil {
		return nil, fmt.Errorf("core: ensemble fuses first solves; Config.FirstSolve is incompatible")
	}
	if cfg.Recovery != nil {
		return nil, fmt.Errorf("core: ensemble does not support Config.Recovery")
	}
	e := &EnsembleRunner{members: make([]*Runner, len(opts.Seeds)), ws: solver.NewMultiCGWorkspace()}
	dim := -1
	for i, seed := range opts.Seeds {
		c := base
		if opts.Perturb != nil {
			c = opts.Perturb(i, base)
		}
		if dim < 0 {
			dim = c.Dim()
		} else if c.Dim() != dim {
			return nil, fmt.Errorf("core: ensemble member %d dimension %d != %d", i, c.Dim(), dim)
		}
		mcfg := cfg
		mcfg.Seed = seed
		e.members[i] = NewRunner(c, mcfg)
	}
	return e, nil
}

// Members returns the ensemble width K.
func (e *EnsembleRunner) Members() int { return len(e.members) }

// Member returns member i's runner (its configuration, records, and
// OnStep hook).
func (e *EnsembleRunner) Member(i int) *Runner { return e.members[i] }

// StepIndex returns the number of completed lockstep steps.
func (e *EnsembleRunner) StepIndex() int { return e.members[0].k }

func (e *EnsembleRunner) obsReg() *obs.Registry {
	if e.Obs != nil {
		return e.Obs
	}
	return obs.Default
}

// Step advances every member by one time step of the original
// algorithm, with both midpoint solves fused across members.
func (e *EnsembleRunner) Step() error {
	k := e.StepIndex()
	kk := len(e.members)
	dim := e.members[0].cur.Dim()
	tm0 := e.Timings

	// Per-member setup: build R_k, evaluate the Brownian force, and
	// form the right-hand side — exactly StepOriginal's preamble.
	ops := make([]solver.Operator, kk)
	rhss := make([][]float64, kk)
	us := make([][]float64, kk)
	opts := make([]solver.Options, kk)
	// Each member's live matrix, and who gets it back after the solve.
	mats := make([]*bcrs.Matrix, kk)
	built := make([]Configuration, kk)
	for i, r := range e.members {
		t0 := time.Now()
		a := r.cur.Build()
		mats[i], built[i] = a, r.cur
		e.Timings.Construct += time.Since(t0)
		op := r.operator(a, r.cur)

		t0 = time.Now()
		s, err := r.sqrtOp(a, op)
		if err != nil {
			return fmt.Errorf("core: ensemble member %d step %d: %w", i, k, err)
		}
		fb := make([]float64, dim)
		s.Apply(fb, r.noise(r.k))
		e.Timings.ChebSingle += time.Since(t0)

		rhss[i] = r.negRHS(fb, r.externalForce(r.cur))
		ops[i] = op
		us[i] = make([]float64, dim)
		// Each member keeps its own window, opened when the lone runner
		// would open it, so a member stays bitwise the lone run.
		t0 = time.Now()
		r.stepWindow(a)
		e.Timings.FirstSolve += time.Since(t0)
		opts[i] = r.solveOpts()
	}

	// First solves, cold, fused: one MultiCG whose column i multiplies
	// through member i's operator.
	t0 := time.Now()
	st1 := solver.MultiCGWith(e.ws, solver.NewEnsemble(ops), us, rhss, opts)
	e.Timings.FirstSolve += time.Since(t0)
	for i, a := range mats {
		built[i].Recycle(a)
	}
	for i, st := range st1 {
		if !st.Converged {
			e.members[i].noteFailure("first_solve")
			return fmt.Errorf("core: ensemble member %d step %d first solve stalled at residual %g",
				i, k, st.Residual)
		}
	}

	// Midpoint configurations and their matrices, then the fused
	// warm-started second solves.
	uHalfs := make([][]float64, kk)
	for i, r := range e.members {
		half := r.cur.Displaced(us[i], r.cfg.Dt/2)
		t0 := time.Now()
		aHalf := half.Build()
		e.Timings.Construct += time.Since(t0)
		mats[i], built[i] = aHalf, half
		ops[i] = r.operator(aHalf, half)
		uHalfs[i] = append([]float64(nil), us[i]...)
	}
	t0 = time.Now()
	st2 := solver.MultiCGWith(e.ws, solver.NewEnsemble(ops), uHalfs, rhss, opts)
	e.Timings.SecondSolve += time.Since(t0)
	for i, a := range mats {
		built[i].Recycle(a)
	}
	for i, st := range st2 {
		if !st.Converged {
			e.members[i].noteFailure("second_solve")
			return fmt.Errorf("core: ensemble member %d step %d second solve stalled at residual %g",
				i, k, st.Residual)
		}
	}

	// Advance every member and record its step.
	for i, r := range e.members {
		rec := StepRecord{Step: r.k, FirstIters: st1[i].Iterations, SecondIters: st2[i].Iterations}
		r.Records = append(r.Records, rec)
		r.advance(uHalfs[i])
	}
	e.Timings.Steps++

	div, measured := e.measureDivergence()
	e.emitStep(st1, st2, div, measured, tm0)
	return nil
}

// Run advances the ensemble n lockstep steps.
func (e *EnsembleRunner) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// measureDivergence computes the pairwise-RMSD summary of the current
// member configurations, when they support it.
func (e *EnsembleRunner) measureDivergence() (DivergencePoint, bool) {
	if len(e.members) < 2 {
		return DivergencePoint{}, false
	}
	confs := make([]Comparable, len(e.members))
	for i, r := range e.members {
		c, ok := r.cur.(Comparable)
		if !ok {
			return DivergencePoint{}, false
		}
		confs[i] = c
	}
	p := DivergencePoint{Step: e.StepIndex()}
	pairs := 0
	for i := 0; i < len(confs); i++ {
		for j := i + 1; j < len(confs); j++ {
			d := confs[i].RMSD(e.members[j].cur)
			p.MeanRMSD += d
			if d > p.MaxRMSD {
				p.MaxRMSD = d
			}
			pairs++
		}
	}
	p.MeanRMSD /= float64(pairs)
	e.Divergence = append(e.Divergence, p)
	return p, true
}

// SpreadGrowthRate fits an exponential to the MeanRMSD series (a
// least-squares line through log MeanRMSD vs step) and returns the
// per-step growth exponent — the ensemble's effective Lyapunov-style
// divergence rate. It returns 0 until two positive measurements
// exist.
func (e *EnsembleRunner) SpreadGrowthRate() float64 {
	var xs, ys []float64
	for _, p := range e.Divergence {
		if p.MeanRMSD > 0 {
			xs = append(xs, float64(p.Step))
			ys = append(ys, math.Log(p.MeanRMSD))
		}
	}
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// emitStep records one lockstep step's metrics, event, and trace
// spans.
func (e *EnsembleRunner) emitStep(st1, st2 []solver.Stats, div DivergencePoint, measured bool, before Timings) {
	reg := e.obsReg()
	deltas := phaseDeltas(before, e.Timings)
	for phase, d := range deltas {
		if d > 0 {
			reg.ObservePhase(phase, d)
			if e.Trace != nil {
				e.Trace.ObserveSpan(phase, d)
			}
		}
	}
	kk := len(e.members)
	reg.Counter("core_ensemble_steps_total").Inc()
	reg.Counter("core_ensemble_fused_solves_total").Add(2)
	reg.Gauge("core_ensemble_members").Set(float64(kk))
	reg.Counter(obs.Label("core_steps_total", "alg", "ensemble")).Add(int64(kk))
	firsts := make([]int, kk)
	seconds := make([]int, kk)
	var f1, f2 int64
	for i := range e.members {
		firsts[i] = st1[i].Iterations
		seconds[i] = st2[i].Iterations
		f1 += int64(st1[i].Iterations)
		f2 += int64(st2[i].Iterations)
		reg.Histogram("core_ensemble_member_residual", obs.ResidualBuckets).Observe(st1[i].Residual)
		reg.Histogram("core_ensemble_member_residual", obs.ResidualBuckets).Observe(st2[i].Residual)
	}
	reg.Counter("core_first_solve_iterations_total").Add(f1)
	reg.Counter("core_second_solve_iterations_total").Add(f2)
	if e.Trace != nil {
		e.Trace.AddInt("ensemble_members", int64(kk))
	}
	if e.Events != nil {
		f := map[string]any{
			"step":         e.StepIndex() - 1,
			"members":      kk,
			"first_iters":  firsts,
			"second_iters": seconds,
		}
		if measured {
			f["mean_rmsd"] = div.MeanRMSD
			f["max_rmsd"] = div.MaxRMSD
		}
		for phase, d := range deltas {
			if d > 0 {
				f[phase+"_s"] = d.Seconds()
			}
		}
		e.Events.Emit("ensemble_step", f)
	}
}
