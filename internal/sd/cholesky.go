package sd

import (
	"fmt"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/solver"
)

// CholeskyRunner is the paper's small-system baseline (Section II-C):
// each time step computes one dense Cholesky factorization of R_k and
// reuses it three ways — the Brownian force f = L*z, the first solve
// (exact), and the second solve via iterative refinement warm-started
// from the first solve's solution, so only one factorization is
// needed per step instead of two. Costs are O(n^3); use for small
// systems only.
type CholeskyRunner struct {
	cfg core.Config
	cur *Conf
	k   int

	// FactorTime, ForceTime, SolveTime, RefineTime accumulate the
	// phase costs.
	FactorTime, ForceTime, SolveTime, RefineTime time.Duration
	// Steps counts completed time steps.
	Steps int
	// RefineIters accumulates iterative-refinement sweeps of second
	// solves.
	RefineIters int
}

// NewCholeskyRunner builds the direct-method runner.
func NewCholeskyRunner(c *Conf, cfg core.Config) *CholeskyRunner {
	full := core.Config{Dt: cfg.Dt, Tol: cfg.Tol, ForceScale: cfg.ForceScale, Seed: cfg.Seed,
		M: cfg.M, MaxIter: cfg.MaxIter, ChebOrder: cfg.ChebOrder, ChebTol: cfg.ChebTol}
	// Reuse core's defaulting by round-tripping through a runner.
	full = core.NewRunner(c, full).Cfg()
	return &CholeskyRunner{cfg: full, cur: c}
}

// Step advances one time step with the direct method.
func (r *CholeskyRunner) Step() error {
	dim := r.cur.Dim()

	a := r.cur.Build()
	t0 := time.Now()
	f, err := solver.FactorDense(a)
	r.FactorTime += time.Since(t0)
	r.cur.Recycle(a) // the factor is a dense copy
	if err != nil {
		return fmt.Errorf("sd: step %d: factorization failed: %w", r.k, err)
	}

	// Brownian force directly from the factor: f^B = L*z has
	// covariance L L^T = R exactly — no Chebyshev approximation
	// needed when a factor is available.
	z := rng.NormalVector(r.cfg.Seed, uint64(r.k), dim)
	if r.cfg.ForceScale != 1 {
		blas.Scal(r.cfg.ForceScale, z)
	}
	fb := make([]float64, dim)
	t0 = time.Now()
	f.BrownianForce(fb, z)
	r.ForceTime += time.Since(t0)
	rhs := make([]float64, dim)
	for i, v := range fb {
		rhs[i] = -v
	}

	// First solve: exact with the factor.
	u := make([]float64, dim)
	t0 = time.Now()
	f.Solve(u, rhs)
	r.SolveTime += time.Since(t0)

	// Midpoint; second solve by refinement with the stale factor.
	half := r.cur.Displaced(u, r.cfg.Dt/2).(*Conf)
	aHalf := half.Build()
	uHalf := append([]float64(nil), u...)
	t0 = time.Now()
	st := f.Refine(aHalf, uHalf, rhs, solver.Options{Tol: r.cfg.Tol})
	r.RefineTime += time.Since(t0)
	half.Recycle(aHalf)
	if !st.Converged {
		return fmt.Errorf("sd: step %d refinement stalled at residual %g", r.k, st.Residual)
	}
	r.RefineIters += st.Iterations

	r.cur = r.cur.Displaced(uHalf, r.cfg.Dt).(*Conf)
	r.k++
	r.Steps++
	return nil
}

// Run advances n steps.
func (r *CholeskyRunner) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}
