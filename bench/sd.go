package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bcrs"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/obs"
	"repro/internal/particles"
	"repro/internal/sd"
	"repro/internal/solver"
)

const (
	sdPhi   = 0.4
	sdChunk = 16 // the paper's headline m; one op is 16 time steps in both algorithms
)

// sdInstance is an SD simulation advanced either by Algorithm 2
// (sd_mrhs: one op is one chunk) or by Algorithm 1 (sd_orig: one op is
// 16 steps). Both start from the same packing and integrate the same
// noise, so a gain in assembly must show on both and a gain in the
// block solve or the guesses on sd_mrhs alone.
type sdInstance struct {
	mrhs   bool
	sz     sizes
	runner *core.Runner
	tr     *sdTrace
	dig    uint64

	// Accounting at the start of the timed run.
	t0                 core.Timings
	rec0, blk0         int
	rebuilds0, reuses0 int64
}

func setupSD(mrhs bool) func(seed uint64, sz sizes, tr *tracer) (instance, error) {
	return func(seed uint64, sz sizes, tr *tracer) (instance, error) {
		sys, err := particles.New(particles.Options{N: sz.sdN, Phi: sdPhi, Seed: seed})
		if err != nil {
			return nil, err
		}
		d := newDigest()
		d.u64(sys.Checksum())
		in := &sdInstance{mrhs: mrhs, sz: sz}
		cfg := core.Config{Dt: 2, M: sdChunk, Seed: seed}

		// One op on a copy, with every first solve's system checked
		// against the reference multiply.
		var checkErr error
		vcfg := cfg
		vcfg.FirstSolve = func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats {
			st := solver.CG(a, x, b, opt)
			if err := checkResidual(a, x, b, opt.Tol); err != nil && checkErr == nil {
				checkErr = err
			}
			return st
		}
		verifier := core.NewRunner(&watchedConf{sd.NewConf(sys.Clone(), hydro.Options{Phi: sdPhi}, 1), nil}, vcfg)
		if err := in.step(verifier); err != nil {
			return nil, err
		}
		if checkErr != nil {
			return nil, fmt.Errorf("first solve: %w", checkErr)
		}
		digestRunner(d, verifier)

		if tr != nil {
			in.tr = &sdTrace{k: tr.track()}
			in.tr.hook(&cfg)
		}
		in.runner = core.NewRunner(&watchedConf{sd.NewConf(sys, hydro.Options{Phi: sdPhi}, 1), in.tr}, cfg)
		warm := sz.sdWarm
		if mrhs {
			warm = sz.sdWarmMRHS
		}
		for i := 0; i < warm; i++ {
			if err := in.step(in.runner); err != nil {
				return nil, err
			}
		}
		digestRunner(d, in.runner)
		in.dig = d.sum()
		return in, nil
	}
}

// step performs one op.
func (in *sdInstance) step(r *core.Runner) error {
	if in.mrhs {
		return r.StepMRHS(sdChunk)
	}
	for i := 0; i < sdChunk; i++ {
		if err := r.StepOriginal(); err != nil {
			return err
		}
	}
	return nil
}

func systemOf(c core.Configuration) *particles.System {
	return c.(*watchedConf).Configuration.(*sd.Conf).Sys
}

// digestRunner adds what a runner has computed so far: iteration
// totals and the bits of every position.
func digestRunner(d digest, r *core.Runner) {
	for _, rec := range r.Records {
		d.u64(uint64(rec.FirstIters))
		d.u64(uint64(rec.SecondIters))
	}
	d.u64(uint64(r.BlockIters))
	d.u64(systemOf(r.Current()).Checksum())
}

func (in *sdInstance) digest() uint64 { return in.dig }
func (in *sdInstance) close()         {}

func (in *sdInstance) rate() float64 {
	if in.mrhs {
		return in.sz.sdRateMRHS
	}
	return in.sz.sdRate
}

// results covers the iteration totals of every step so far and the
// final positions.
func (in *sdInstance) results() uint64 {
	d := newDigest()
	digestRunner(d, in.runner)
	return d.sum()
}

func (in *sdInstance) run(n int, limit time.Duration) ([]opRec, error) {
	in.t0, in.rec0, in.blk0 = in.runner.Timings, len(in.runner.Records), in.runner.BlockIters
	in.rebuilds0 = obs.Default.Counter("neighbor_list_rebuilds_total").Value()
	in.reuses0 = obs.Default.Counter("neighbor_list_reuses_total").Value()
	var k *track
	if in.tr != nil {
		k = in.tr.k
	}
	var stepErr error
	ops := timedLoop(n, limit, k, func() error {
		err := in.step(in.runner)
		if err != nil && stepErr == nil {
			stepErr = err
		}
		return err
	}, nil)
	if stepErr != nil {
		return ops, stepErr
	}
	// A step returns an error when a solve does not converge, so what
	// is left to check is that the trajectory stayed finite.
	for _, p := range systemOf(in.runner.Current()).Pos {
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return ops, fmt.Errorf("non-finite particle position")
			}
		}
	}
	return ops, nil
}

func (in *sdInstance) layers(ops []opRec, out metrics) {
	r := in.runner
	t, t0 := r.Timings, in.t0
	steps := float64(t.Steps - t0.Steps)
	if steps == 0 {
		return
	}
	// What the timed run added to the stepper's own phase accounting.
	t = core.Timings{
		Construct: t.Construct - t0.Construct, ChebVectors: t.ChebVectors - t0.ChebVectors,
		CalcGuesses: t.CalcGuesses - t0.CalcGuesses, ChebSingle: t.ChebSingle - t0.ChebSingle,
		FirstSolve: t.FirstSolve - t0.FirstSolve, SecondSolve: t.SecondSolve - t0.SecondSolve,
	}
	perStep := func(d time.Duration) float64 { return d.Seconds() / steps }
	phases := []struct {
		name string
		d    time.Duration
	}{
		{"core.construct_s_per_step", t.Construct},
		{"core.cheb_vectors_s_per_step", t.ChebVectors},
		{"core.calc_guesses_s_per_step", t.CalcGuesses},
		{"core.cheb_single_s_per_step", t.ChebSingle},
		{"core.first_solve_s_per_step", t.FirstSolve},
		{"core.second_solve_s_per_step", t.SecondSolve},
	}
	var inPhases, wall time.Duration
	for _, p := range phases {
		out.set(p.name, perStep(p.d))
		inPhases += p.d
	}
	for _, o := range ops {
		wall += o.end - o.start
	}
	out.set("core.self_s_per_step", perStep(wall-inPhases))

	var first, second float64
	var guessErr sample
	for _, rec := range r.Records[in.rec0:] {
		first += float64(rec.FirstIters)
		second += float64(rec.SecondIters)
		if rec.HadGuess && rec.FirstIters > 0 {
			guessErr = append(guessErr, rec.GuessRelError)
		}
	}
	out.set("core.first_iters_per_step", first/steps)
	out.set("core.second_iters_per_step", second/steps)
	out.set("core.block_iters_per_chunk", float64(r.BlockIters-in.blk0)/float64(len(ops)))
	out.set("core.guess_rel_err_p50", guessErr.median())
	out.set("neighbor.rebuilds", float64(obs.Default.Counter("neighbor_list_rebuilds_total").Value()-in.rebuilds0))
	out.set("neighbor.reuses", float64(obs.Default.Counter("neighbor_list_reuses_total").Value()-in.reuses0))

	var build time.Duration
	var builds int
	muls := collectMuls(in.tr.k.t.spans)
	for _, s := range in.tr.k.t.spans {
		if s.name == spanBuild {
			build += s.dur()
			builds++
		}
	}
	out.set("hydro.build_s_per_step", perStep(build))
	out.set("hydro.builds_per_step", float64(builds)/steps)
	out.set("hydro.nnzb", float64(in.tr.nnzb))
	out.set("hydro.blocks_per_row", ratio(float64(in.tr.nnzb), float64(in.tr.nb)))

	cheb := muls.byTag[phaseCheb]
	out.set("chebyshev.apply_s_per_step", perStep(t.ChebVectors+t.ChebSingle))
	out.set("chebyshev.muls_per_step", float64(cheb.count)/steps)
	solveMuls := muls.count - cheb.count
	solveTime := t.CalcGuesses + t.FirstSolve + t.SecondSolve
	out.set("solver.self_s_per_step", perStep(solveTime-(muls.total-cheb.total)))
	out.set("solver.matmuls_per_step", float64(solveMuls)/steps)
	out.set("bcrs.mul_s_per_step", perStep(muls.total))
	out.set("bcrs.busy_frac", ratio(muls.total.Seconds(), wall.Seconds()))
	muls.fill(out)
}

// sdTrace follows a step from outside the stepper, through the hooks
// its public Config offers. The stepper builds a matrix and asks
// Distribute for its operator twice per step: once for the Brownian
// force and the first solve, once for the second solve at the
// midpoint. BlockPrecond is called between the chunk's Chebyshev
// multiplies and its block solve, and FirstSolve replaces the first
// solve, so the phase every multiply belongs to is known.
type sdTrace struct {
	k      *track
	phase  phase
	solved bool // a block or first solve has run since the last second solve
	nb     int  // block rows and blocks of the last matrix built
	nnzb   int
}

func (t *sdTrace) hook(cfg *core.Config) {
	cfg.Distribute = func(a *bcrs.Matrix, _ core.Configuration) core.DistOp {
		if t.solved {
			t.phase, t.solved = phaseSecond, false
		} else {
			t.phase = phaseCheb
		}
		return &tracedOp{a: a, k: t.k, tag: &t.phase}
	}
	cfg.BlockPrecond = func(*bcrs.Matrix) solver.Preconditioner {
		t.phase, t.solved = phaseGuess, true
		return nil
	}
	cfg.FirstSolve = func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats {
		t.phase, t.solved = phaseFirst, true
		id := t.k.begin(spanFirstSolve, phaseNone, 0)
		st := solver.CG(&tracedOp{a: a, k: t.k, tag: &t.phase}, x, b, opt)
		t.k.end(id)
		return st
	}
}

// watchedConf is the configuration every SD run steps. Build, the call
// into hydro and neighbor, is reached twice per time step, which makes
// it the place inside an op of a second where the host's speed is
// probed; in a traced run (t not nil) it is a span as well.
type watchedConf struct {
	core.Configuration
	t *sdTrace
}

func (c *watchedConf) Build() *bcrs.Matrix {
	meter.sample()
	var a *bcrs.Matrix
	if c.t == nil {
		a = c.Configuration.Build()
	} else {
		id := c.t.k.begin(spanBuild, phaseNone, 0)
		a = c.Configuration.Build()
		c.t.k.end(id)
		c.t.nb, c.t.nnzb = a.NB(), a.NNZB()
	}
	// The probes multiply the matrix the step is about to solve with.
	meter.follow(a, 4096, 13.0)
	meter.sample()
	return a
}

func (c *watchedConf) Displaced(u []float64, dt float64) core.Configuration {
	return &watchedConf{c.Configuration.Displaced(u, dt), c.t}
}

// mulStats summarises the multiply spans of a traced run.
type mulStats struct {
	count int
	total time.Duration
	byM   map[int]sample // milliseconds
	byTag map[phase]mulGroup
}

type mulGroup struct {
	count int
	total time.Duration
}

func collectMuls(spans []span) mulStats {
	ms := mulStats{byM: map[int]sample{}, byTag: map[phase]mulGroup{}}
	for _, s := range spans {
		if s.name != spanMul {
			continue
		}
		ms.count++
		ms.total += s.dur()
		ms.byM[int(s.m)] = append(ms.byM[int(s.m)], float64(s.dur())/float64(time.Millisecond))
		g := ms.byTag[s.tag]
		g.count++
		g.total += s.dur()
		ms.byTag[s.tag] = g
	}
	return ms
}

// fill reports the multiplies by vector count, at the widths the
// workloads use.
func (ms mulStats) fill(out metrics) {
	for _, m := range []int{1, 16, 32} {
		out.set(fmt.Sprintf("bcrs.mul_count_m%d", m), float64(len(ms.byM[m])))
		out.set(fmt.Sprintf("bcrs.mul_p50_ms_m%d", m), ms.byM[m].median())
	}
}
