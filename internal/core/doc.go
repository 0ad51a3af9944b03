// Package core implements the paper's primary contribution: the
// Multiple Right-Hand Sides (MRHS) algorithm for dynamical
// simulations (Algorithm 2).
//
// A first-order stochastic dynamical simulation solves, at every time
// step k, a linear system R_k u_k = -f_k whose matrix evolves slowly
// with the configuration but whose right-hand side is fresh random
// noise. Because the right-hand sides arrive one at a time, the
// efficient multiple-vector kernel GSPMV seems unusable. The MRHS
// idea: at the start of every chunk of m steps, solve the *augmented*
// system
//
//	R_0 [u_0, u'_1, ..., u'_{m-1}] = -S(R_0) [z_0, z_1, ..., z_{m-1}]
//
// with a block iterative method. One block solve costs little more
// than a single-vector solve (every iteration is one GSPMV), yet it
// yields the exact solution for step 0 and — because R_k stays close
// to R_0 — good initial guesses u'_k for the remaining m-1 steps,
// whose warm-started solves then need 30-40% fewer iterations.
//
// # The reuse window
//
// Section III lists a preconditioner reused across slowly varying
// matrices as the first way to exploit such a sequence, and the MRHS
// guesses as one that composes with it. The stepper does both: a
// window of M steps shares one preconditioner (Config.Precond; block
// IC(0) by default), built from the window's first matrix — a chunk's
// R_0 in Algorithm 2, the matrix of every M-th step in Algorithm 1 —
// and carried by solveOpts to the block solve, every first solve
// (through the FirstSolve hook too) and every second solve. A
// factorisation that breaks down leaves its window unpreconditioned
// and is counted; it never fails a step. At N = 1000 the factor cuts a
// solve from about 90 iterations to about 9 at twice the cost per
// iteration. Config.Precond = NoPrecond is the
// paper's unpreconditioned setting, which the paper's tables and
// figures regenerate under.
//
// The window opens before the step's Brownian force, which runs through
// its factor too: S(R_k) z_k is L*sqrt(L^{-1} R_k L^{-T})*z_k by
// preconditioned Lanczos (chebyshev.PrecondSqrt), covariance R_k exactly
// whatever the factor's age, to Config.ChebTol in four to seven
// multiplies where the paper's series on [floor, Gershgorin] takes 30
// and errs by up to 58 % on the slow modes. A window without a factor
// takes the paper's series.
//
// # Who owns a matrix
//
// A matrix Build returns is its caller's until handed back with
// Configuration.Recycle; handing back is optional; hooks do not retain.
// Every stepper hands a matrix back where it dies — after the first
// solve, the second, a chunk's block solve — and sd.Conf's assembler
// builds the next one into the same arrays, so what a Config hook
// receives is valid for the call (Distribute's operator: until the solve
// its matrix was built for returns — the midpoint matrix gets its own).
//
// The package is generic over a Configuration interface so the
// technique applies beyond Stokesian dynamics, as the paper suggests;
// internal/sd provides the SD instantiation. Time integration is the
// overlap-tolerant explicit midpoint method required by
// configuration-dependent mobility (two solves per step, the second
// warm-started from the first in both algorithms).
package core
