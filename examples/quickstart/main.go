// Quickstart: the smallest end-to-end Stokesian dynamics run using
// the MRHS algorithm.
//
// It builds a crowded polydisperse system, runs a few chunks of
// Algorithm 2, and prints the timing breakdown next to the original
// algorithm's — the 10-30% speedup of the paper's Tables VI/VII in
// miniature.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/particles"
	"repro/internal/sd"
)

func main() {
	// An 8,000-particle E. coli cytoplasm model at 50% volume
	// occupancy (radii follow the paper's Table IV). The size
	// matters: GSPMV's advantage comes from amortizing matrix
	// memory traffic, so the resistance matrix must exceed the
	// last-level cache — exactly why the paper runs 300,000
	// particles.
	sys, err := particles.New(particles.Options{N: 8000, Phi: 0.5, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %d particles, box %.0f A, occupancy %.0f%%\n",
		sys.N, sys.Box, 100*sys.VolumeFraction())

	const steps = 16
	run := func(name string, mrhs bool) map[string]float64 {
		// Each run gets its own copy of the system and the same
		// noise seed, so both algorithms integrate the same physics.
		s := sys.Clone()
		sim := sd.New(s, hydro.Options{Phi: 0.5, CutoffXi: 2}, core.Config{
			Dt:   2,  // ps, as in the paper
			M:    16, // right-hand sides per augmented solve
			Seed: 2012,
			// The paper's solves are unpreconditioned. Leave Precond
			// unset for the stepper's default — one IC(0) factor per
			// 16 steps preconditioning every solve — which is about
			// three times faster in both algorithms and leaves the
			// guesses little to save.
			Precond: core.NoPrecond,
		}, 1)
		var err error
		if mrhs {
			err = sim.RunMRHS(steps)
		} else {
			err = sim.RunOriginal(steps)
		}
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		rep := sim.Report()
		fmt.Printf("\n%s (%d steps): first solve %.1f iters, second solve %.1f iters\n",
			name, steps, rep.MeanFirstIters, rep.MeanSecondIters)
		for _, k := range core.PhaseOrder {
			fmt.Printf("  %-14s %8.5f s/step\n", k, rep.PerStep[k])
		}
		return rep.PerStep
	}

	orig := run("original algorithm (Alg 1)", false)
	mrhs := run("MRHS algorithm (Alg 2, m=16)", true)

	fmt.Printf("\nmeasured speedup on this host: %.2fx (paper measured 1.1-1.4x at 300k particles)\n",
		orig["Average"]/mrhs["Average"])
	fmt.Println(`
Whether MRHS wins end-to-end depends on the kernel regime. On the
paper's multicore SIMD machines GSPMV is memory-bandwidth-bound, so
16 vectors cost only ~2x one vector and the warm-started solves come
out ahead. A single scalar Go thread is compute-bound from m=1 (no
bandwidth to amortize), so the measured speedup here may hover near
1x even though the iteration reduction above reproduces the paper's
30-40%. Run 'go run ./cmd/experiments -run fig7' to see measured
iteration counts priced by the Eq. 9 model on this host's rates and on
the paper's hardware parameters.`)
}
