package solver_test

import (
	"fmt"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Example solves four right-hand sides at once with the block
// conjugate gradient method — one GSPMV per iteration instead of four
// SPMVs, and none to form the residual of a zero guess.
func Example() {
	a := bcrs.Random(bcrs.RandomOptions{NB: 50, BlocksPerRow: 5, Seed: 1})
	b := multivec.New(a.N(), 4)
	rng.New(2).FillNormal(b.Data)

	x := multivec.New(a.N(), 4)
	st := solver.BlockCG(nil, a, x, b, solver.Options{Tol: 1e-8})
	fmt.Println("converged:", st.Converged)
	fmt.Println("GSPMV calls == iterations:", st.MatMuls == st.Iterations)
	// Output:
	// converged: true
	// GSPMV calls == iterations: true
}

// ExampleCG shows the warm-start mechanism the MRHS algorithm relies
// on: a good initial guess slashes the iteration count.
func ExampleCG() {
	a := bcrs.Random(bcrs.RandomOptions{NB: 60, BlocksPerRow: 6, Seed: 3})
	b := make([]float64, a.N())
	rng.New(4).FillNormal(b)

	cold := make([]float64, a.N())
	stCold := solver.CG(a, cold, b, solver.Options{})

	// Re-solve warm-started from the known solution, slightly off.
	warm := append([]float64(nil), cold...)
	for i := range warm {
		warm[i] *= 1.0001
	}
	stWarm := solver.CG(a, warm, b, solver.Options{})
	fmt.Println("warm start cheaper:", stWarm.Iterations < stCold.Iterations)
	// Output:
	// warm start cheaper: true
}
