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
// Only column 0 is used as a solution; the others are guesses that
// drift moves 2e-3 to 8e-3 away from their steps' solutions whatever
// the solve left. So the stepper solves the augmented system only as
// far as that: where a chunk runs block CG (see the direct guesses
// below for where it does not), the solve stops at max(Config.Tol, 0.1
// times the smallest guess error of the previous chunk's warm steps) —
// a runner's first chunk at Tol — and a warm CG finishes column 0 to
// Tol. The chunk record carries that tolerance as block_tol.
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
// its factor too, by the direct velocity below: covariance R_k exactly
// whatever the factor's age, to chebyshev.DefaultTol in four to eight
// multiplies where the paper's series on [floor, Gershgorin] takes 30
// and errs by up to 58 % on the slow modes. A window without a factor
// takes the paper's series, which fails with chebyshev.ErrNotSPD when
// its last multiply's Rayleigh quotient falls below its bracket.
//
// # The direct velocity
//
// Under a factor window a step samples its first velocity with its
// force (Chow & Saad's precision-matrix sampling). With
// X = L^{-1} R_k L^{-T}, u = -L^{-T} X^{-1/2} z_k = -M^{-1} L X^{-1/2} z_k
// costs the inverse root (chebyshev.PrecondInvSqrt) and one
// ApplyBlock, and R_k u = -L X^{1/2} z_k, minus a force of covariance
// R_k, is got by one multiply, with R_k u = -f^B to rounding. So one
// Lanczos recurrence draws every force under a factor, and both
// algorithms draw bitwise the same one at a configuration. Algorithm 1
// runs no first solve; the FirstSolve hook, when set, still receives
// the system and finds it solved. Algorithm 2's warm steps keep their
// first solve, from their guess, on that right-hand side.
//
// # The direct guesses
//
// The same sampling gives Algorithm 2's augmented system its solution
// exactly, m columns at once: under a factor window a chunk draws
// U = -M^{-1} L X_0^{-1/2} Z by one m-wide inverse root and one
// ApplyBlock, whose column j is the direct velocity for z_j at R_0,
// and step 0's right-hand side R_0 u_0 by one multiply. No
// block solve runs; step 0 is Algorithm 1's step bit for bit, and
// columns 1..m-1 are the guesses, whose steps draw their own direct
// velocity's right-hand side and solve it warm from their guess. The chunk record's guesses field
// ("direct" or "block") and core_direct_guess_chunks_total say which
// path a chunk took. Which algorithm to run is a question for the cost
// model, not for this package.
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
// A step multiplies through that matrix or Config.Distribute's operator
// over it; half storage lost every SD step it was measured in and has
// no switch here.
//
// # One step body
//
// Both algorithms run one time step, Runner.step: Algorithm 1's with no
// guess (its window rule, the direct velocity or a cold first solve),
// Algorithm 2's steps 1..m-1 with their column of U as the guess, the
// same Brownian force and a warm first solve. Every step, a chunk's step 0
// included, ends in one tail, Runner.finish: the second solve at the
// midpoint, the record, the advance and the step event.
//
// The package is generic over a Configuration interface so the
// technique applies beyond Stokesian dynamics, as the paper suggests;
// internal/sd provides the SD instantiation. Time integration is the
// overlap-tolerant explicit midpoint method required by
// configuration-dependent mobility (two solves per step, the second
// warm-started from the first in both algorithms).
package core
