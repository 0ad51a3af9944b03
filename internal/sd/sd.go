// Package sd instantiates the generic MRHS stepper of internal/core
// for Stokesian dynamics: polydisperse spheres in a periodic box,
// resistance matrices R = muF*I + Rlub from internal/hydro, Brownian
// forces via the Chebyshev square root, and the explicit midpoint
// integrator.
//
// It also provides the paper's small-system baseline (Section II-C):
// a dense Cholesky factorization per step, reused for the Brownian
// force, the first solve, and — via iterative refinement — the second
// solve.
package sd

import (
	"fmt"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/parallel"
	"repro/internal/particles"
)

// Conf is a Stokesian-dynamics configuration: an immutable-by-
// convention snapshot of the particle system that implements
// core.Configuration.
type Conf struct {
	Sys     *particles.System
	Opt     hydro.Options
	Threads int // kernel threads for the assembled matrices

	// asm is the resistance assembler — Verlet neighbor list, far-
	// field coefficients, assembly scratch — shared along the
	// Displaced chain: SD displacements are a tiny fraction of the
	// interaction range, so one candidate search serves many steps.
	// It is mutable state of the chain, so two chains never share one
	// and a chain is built from one goroutine at a time.
	asm *hydro.Assembler
}

// NewConf wraps a particle system. The hydro options' Phi is filled
// from the system if unset. The thread count is also installed as the
// process-wide worker-pool size, so one knob scales the whole step —
// assembly, the solves' vector ops, and the Chebyshev recurrence, not
// just the GSPMV kernels.
func NewConf(sys *particles.System, opt hydro.Options, threads int) *Conf {
	if opt.Phi == 0 {
		opt.Phi = sys.Phi
	}
	if threads < 1 {
		threads = 1
	}
	parallel.SetThreads(threads)
	opt = opt.WithDefaults()
	return &Conf{Sys: sys, Opt: opt, Threads: threads, asm: hydro.NewAssembler(sys, opt)}
}

// assembler returns the chain's assembler, or a fresh one for a Conf
// that was not made by NewConf.
func (c *Conf) assembler() *hydro.Assembler {
	if c.asm != nil {
		return c.asm
	}
	return hydro.NewAssembler(c.Sys, c.Opt)
}

// Dim returns 3N.
func (c *Conf) Dim() int { return 3 * c.Sys.N }

// Build assembles the sparse resistance matrix at this configuration,
// reusing the chain's neighbor candidates when the configuration has
// drifted less than the list's skin. The matrix is the caller's until
// handed to Recycle: later builds on the chain do not touch it.
func (c *Conf) Build() *bcrs.Matrix {
	a := c.assembler().Build(c.Sys.Pos)
	if c.Threads != a.Threads() {
		a.SetThreads(c.Threads)
	}
	return a
}

// Recycle hands a matrix Build returned back to the chain's assembler.
func (c *Conf) Recycle(a *bcrs.Matrix) { c.asm.Recycle(a) }

// SpectrumFloor returns the minimum far-field diagonal coefficient, a
// rigorous lower bound on the spectrum of R.
func (c *Conf) SpectrumFloor() float64 {
	return c.assembler().MinFarField()
}

// Displaced returns a new configuration with positions advanced by
// dt*u (wrapped periodically); the receiver is unchanged. The radii
// are immutable along a trajectory, so the new system shares them.
func (c *Conf) Displaced(u []float64, dt float64) core.Configuration {
	next := *c.Sys
	next.Pos = make([]blas.Vec3, c.Sys.N)
	next.DisplacedFrom(c.Sys, u, dt)
	// The assembler travels with the trajectory: its list revalidates
	// against whatever positions it is queried with.
	return &Conf{Sys: &next, Opt: c.Opt, Threads: c.Threads, asm: c.asm}
}

// Simulation bundles a runner with its SD configuration.
type Simulation struct {
	*core.Runner
}

// New builds a simulation over the particle system.
func New(sys *particles.System, opt hydro.Options, cfg core.Config, threads int) *Simulation {
	return &Simulation{Runner: core.NewRunner(NewConf(sys, opt, threads), cfg)}
}

// System returns the current particle system.
func (s *Simulation) System() *particles.System {
	return s.Current().(*Conf).Sys
}

// MatrixStats builds the current resistance matrix and returns its
// statistics (the Table I quantities).
func (s *Simulation) MatrixStats() (n, nb, nnz, nnzb int, bpr float64) {
	a := s.Current().(*Conf).Build()
	st := a.Stats()
	return st.N, st.NB, st.NNZ, st.NNZB, st.BlocksPerRow
}

// RunReport summarizes a finished run in the shape of the paper's
// Tables VI/VII rows plus iteration data.
type RunReport struct {
	PerStep         map[string]float64 // seconds per step by phase
	Records         []core.StepRecord
	MeanFirstIters  float64 // over steps with a cold or warm first solve
	MeanSecondIters float64
}

// Report collects the runner's accumulated data.
func (s *Simulation) Report() RunReport {
	rep := RunReport{PerStep: s.Timings.PerStep(), Records: s.Records}
	var f, sec, nf int
	for _, r := range s.Records {
		if r.FirstIters > 0 {
			f += r.FirstIters
			nf++
		}
		sec += r.SecondIters
	}
	if nf > 0 {
		rep.MeanFirstIters = float64(f) / float64(nf)
	}
	if len(s.Records) > 0 {
		rep.MeanSecondIters = float64(sec) / float64(len(s.Records))
	}
	return rep
}

// Verify checks the configuration is usable and returns a descriptive
// error otherwise; call before long runs.
func (s *Simulation) Verify() error {
	sys := s.System()
	if ov := sys.MaxOverlap(); ov > 0 {
		return fmt.Errorf("sd: initial packing has overlap %v", ov)
	}
	return nil
}

// Elapsed returns the total wall time accumulated across all phases.
func (s *Simulation) Elapsed() time.Duration {
	t := s.Timings
	return t.Construct + t.ChebVectors + t.CalcGuesses + t.ChebSingle + t.FirstSolve + t.SecondSolve
}

// NewDistributed builds a simulation in which every matrix multiply —
// the CG solves, the block solves, and the Chebyshev Brownian-force
// recurrence — executes on a simulated p-node cluster: each assembled
// resistance matrix is RCB-partitioned by particle position and
// wrapped in the halo-exchange operator of internal/cluster. This is
// the distributed-memory SD simulation the paper reports not yet
// having (Section V-A), at the functional level (the physics and the
// message pattern are real; the nodes are goroutines).
func NewDistributed(sys *particles.System, opt hydro.Options, cfg core.Config, p int) *Simulation {
	return NewDistributedOpts(sys, opt, cfg, DistOptions{P: p})
}
