// Command mrhs-sim runs a Stokesian dynamics simulation with either
// the MRHS algorithm (Algorithm 2), the original algorithm
// (Algorithm 1), or the dense-Cholesky baseline for small systems,
// and prints the per-phase timing breakdown and iteration statistics.
//
// Example:
//
//	mrhs-sim -n 3000 -phi 0.5 -alg mrhs -m 16 -steps 32
//	mrhs-sim -n 3000 -phi 0.5 -alg original -steps 32
//	mrhs-sim -n 200 -phi 0.3 -alg cholesky -steps 16
//
// With -chaos (or a custom -faults spec) the run executes on a
// simulated cluster under an injected fault plan — dropped, delayed,
// duplicated, and corrupted halo messages, a slow node, and a node
// crash recovered from a checkpoint — and must reproduce the
// fault-free trajectory checksum of the same -seed and -nodes:
//
//	mrhs-sim -n 300 -phi 0.3 -steps 8 -chaos -seed 1
//	mrhs-sim -n 300 -phi 0.3 -steps 8 -nodes 4 -seed 1   # clean reference
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bcrs"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/obs"
	"repro/internal/particles"
	"repro/internal/perf"
	"repro/internal/sd"
	"repro/internal/solver"
	"repro/internal/trajio"
)

func main() {
	var (
		n       = flag.Int("n", 3000, "number of particles")
		phi     = flag.Float64("phi", 0.5, "volume occupancy (0, 0.55]")
		alg     = flag.String("alg", "mrhs", "algorithm: mrhs, original, cholesky")
		m       = flag.Int("m", 16, "right-hand sides per MRHS chunk")
		steps   = flag.Int("steps", 32, "time steps to simulate")
		dt      = flag.Float64("dt", 2, "time step size")
		seed    = flag.Uint64("seed", 1, "random seed (particle packing and, unless -dyn-seed is set, the noise stream)")
		dynSeed = flag.Uint64("dyn-seed", 0, "noise-stream seed, decoupled from the packing (0: use -seed); lets a lone run reproduce ensemble member i via -dyn-seed seed+i")
		threads = flag.Int("threads", 1, "kernel threads")
		tol     = flag.Float64("tol", 1e-6, "solver tolerance")
		ckpt    = flag.String("ckpt", "", "write a checkpoint to this file after the run")
		resume  = flag.String("resume", "", "resume from a checkpoint file (overrides -n, -phi, -seed)")
		xyz     = flag.String("xyz", "", "write an XYZ trajectory (one frame per step) to this file")
		precond = flag.String("precond", "ic0", "preconditioner reused by every solve of a window of -m steps: ic0, jacobi, none (the paper's setting)")

		symmetric = flag.Bool("symmetric", false, "multiply through half-storage symmetric extractions (halves matrix traffic; ignored with -nodes)")

		ensemble = flag.Int("ensemble", 1, "advance K trajectories in lockstep with fused solves (kernel m >= K); seeds are -seed..-seed+K-1")
		jitter   = flag.Float64("jitter", 0, "per-coordinate Gaussian jitter (Angstroms) on ensemble member starts")

		nodes       = flag.Int("nodes", 0, "run every multiply on a simulated p-node cluster (0: single node; fault runs default to 4)")
		faultsSpec  = flag.String("faults", "", "fault-injection spec, e.g. 'drop:rate=0.02;crash:node=1,at=5' (see internal/cluster/faults)")
		chaosRun    = flag.Bool("chaos", false, "run under the chaos preset fault plan (unless -faults overrides it)")
		recoverCkpt = flag.String("recover-ckpt", "", "recovery checkpoint path for fault runs (default: a temp file)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. :9090 or :0)")
		obsJSON     = flag.String("obs-json", "", "write an obs metrics snapshot (JSON) to this file after the run")
		events      = flag.String("events", "", "write per-step structured events (JSONL) to this file")
	)
	flag.Parse()

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("metrics: serving on http://%s/metrics\n", srv.Addr())
	}

	var sys *particles.System
	startStep := 0
	if *resume != "" {
		st, err := checkpoint.LoadFile(*resume)
		if err != nil {
			fail(err)
		}
		sys = st.System()
		startStep = st.Step
		*seed = st.Seed
		*phi = sys.Phi
		fmt.Printf("resumed from %s at step %d\n", *resume, startStep)
	} else {
		var err error
		sys, err = particles.New(particles.Options{N: *n, Phi: *phi, Seed: *seed})
		if err != nil {
			fail(err)
		}
	}
	fmt.Printf("system: %d particles, phi=%.2f, box=%.1f A\n", sys.N, sys.VolumeFraction(), sys.Box)

	cfg := core.Config{Dt: *dt, M: *m, Seed: *seed, Tol: *tol, Symmetric: *symmetric}
	if *dynSeed != 0 {
		cfg.Seed = *dynSeed
	}
	switch *precond {
	case "ic0": // core's default
	case "none":
		cfg.Precond = core.NoPrecond
	case "jacobi":
		cfg.Precond = func(a *bcrs.Matrix) solver.Preconditioner { return solver.NewBlockJacobi(a) }
	default:
		fail(fmt.Errorf("unknown preconditioner %q", *precond))
	}
	hopt := hydro.Options{Phi: *phi}

	// Fault injection: -chaos selects the preset plan, -faults any
	// custom spec. Fault runs are distributed (they sabotage halo
	// messages) and armed with checkpoint-based crash recovery.
	spec := *faultsSpec
	if *chaosRun && spec == "" {
		spec = faults.ChaosSpec
	}
	var inj *faults.Injector
	if spec != "" {
		if *alg == "cholesky" {
			fail(fmt.Errorf("-faults/-chaos require -alg mrhs or original (cholesky has no distributed transport)"))
		}
		plan, err := faults.Parse(spec)
		if err != nil {
			fail(err)
		}
		inj = plan.NewInjector(*seed)
		if *nodes == 0 {
			*nodes = 4
		}
		path := *recoverCkpt
		if path == "" {
			f, err := os.CreateTemp("", "mrhs-recover-*.ckpt")
			if err != nil {
				fail(err)
			}
			path = f.Name()
			f.Close()
			defer os.Remove(path)
		}
		cfg.Recovery = &core.Recovery{
			MaxRetries:  5,
			Snapshotter: sd.FileSnapshotter(path, hopt, *threads, *seed),
		}
		fmt.Printf("faults: plan %q armed on %d nodes (recovery checkpoint %s)\n", plan, *nodes, path)
	}

	if *ensemble > 1 {
		if spec != "" || *nodes > 0 || *resume != "" {
			fail(fmt.Errorf("-ensemble is incompatible with -faults/-chaos, -nodes, and -resume"))
		}
		runEnsemble(sys, hopt, cfg, *threads, *ensemble, *jitter, *steps, *events)
		if *obsJSON != "" {
			if err := obs.Default.Snapshot().SaveFile(*obsJSON); err != nil {
				fail(err)
			}
			fmt.Printf("obs snapshot written to %s\n", *obsJSON)
		}
		return
	}

	switch *alg {
	case "cholesky":
		r := sd.NewCholeskyRunner(sd.NewConf(sys, hopt, *threads), cfg)
		if err := r.Run(*steps); err != nil {
			fail(err)
		}
		fmt.Printf("cholesky: %d steps, factor %.3fs force %.3fs solve %.3fs refine %.3fs (%d refine sweeps)\n",
			r.Steps, r.FactorTime.Seconds(), r.ForceTime.Seconds(),
			r.SolveTime.Seconds(), r.RefineTime.Seconds(), r.RefineIters)
	case "mrhs", "original":
		var sim *sd.Simulation
		if *nodes > 0 {
			sim = sd.NewDistributedOpts(sys, hopt, cfg, sd.DistOptions{
				P: *nodes, Threads: *threads, Faults: inj, Retry: cluster.Backoff{Seed: *seed},
			})
		} else {
			sim = sd.New(sys, hopt, cfg, *threads)
		}
		sim.SkipTo(startStep)
		if *events != "" {
			f, err := os.Create(*events)
			if err != nil {
				fail(err)
			}
			el := obs.NewEventLog(f)
			defer el.Close()
			sim.Events = el
			if inj != nil {
				inj.Events = el
			}
		}
		if *xyz != "" {
			f, err := os.Create(*xyz)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			tw := trajio.NewWriter(f)
			defer tw.Flush()
			sim.OnStep = func(step int, u []float64, dt float64) {
				// Positions reflect the state *before* this step's
				// displacement; frames trail by one step, which is
				// immaterial for visualization.
				if err := tw.WriteFrame(sim.System(), fmt.Sprintf("step %d t=%g", step, float64(step)*dt)); err != nil {
					fail(err)
				}
			}
		}
		_, nb, nnz, nnzb, bpr := sim.MatrixStats()
		fmt.Printf("matrix: nb=%d nnz=%d nnzb=%d nnzb/nb=%.1f\n", nb, nnz, nnzb, bpr)
		var err error
		if *alg == "mrhs" {
			err = sim.RunMRHS(*steps)
		} else {
			err = sim.RunOriginal(*steps)
		}
		if err != nil {
			fail(err)
		}
		rep := sim.Report()
		fmt.Printf("\nper-step timing (s):\n")
		for _, k := range core.PhaseOrder {
			fmt.Printf("  %-14s %.5f\n", k, rep.PerStep[k])
		}
		fmt.Printf("\nmean iterations: first solve %.1f, second solve %.1f\n",
			rep.MeanFirstIters, rep.MeanSecondIters)
		// The checksum hashes the exact position bits: two runs agree
		// iff their trajectories are bitwise identical, which is how
		// chaos runs are validated against fault-free ones (use the
		// same -seed and -nodes).
		fmt.Printf("trajectory checksum: %016x\n", sim.System().Checksum())
		if inj != nil {
			reportFaults(inj)
		}
		if *ckpt != "" {
			st := checkpoint.FromSystem(sim.System(), sim.StepIndex(), *seed)
			if err := checkpoint.SaveFile(*ckpt, st); err != nil {
				fail(err)
			}
			fmt.Printf("checkpoint written to %s (step %d)\n", *ckpt, st.Step)
		}
	default:
		fail(fmt.Errorf("unknown algorithm %q", *alg))
	}

	if rep := perf.KernelObsReport(nil); len(rep) > 0 {
		fmt.Printf("\nkernel counters (bcrs_mul, per m):\n")
		fmt.Printf("  %4s %8s %10s %8s %9s %6s\n", "m", "calls", "secs", "GB/s", "Gflop/s", "r(m)")
		for _, k := range rep {
			fmt.Printf("  %4d %8d %10.4f %8.2f %9.2f %6.2f\n",
				k.M, k.Calls, k.Secs, k.GBps, k.Gflops, k.R)
		}
	}
	if *obsJSON != "" {
		if err := obs.Default.Snapshot().SaveFile(*obsJSON); err != nil {
			fail(err)
		}
		fmt.Printf("obs snapshot written to %s\n", *obsJSON)
	}
	// Defensive backstop: solver non-convergence surfaces as an error
	// from the run (handled above), but if any failure counter ticked
	// without aborting the run, still exit non-zero.
	var failures int64
	for name, v := range obs.Default.Snapshot().Counters {
		if base, _ := obs.SplitName(name); base == "core_solve_failures_total" {
			failures += v
		}
	}
	if failures > 0 {
		fail(fmt.Errorf("%d solver non-convergence event(s) recorded", failures))
	}
}

// runEnsemble advances K lockstep trajectories with fused solves and
// prints the divergence history and per-member trajectory checksums
// (each member is bitwise-identical to a lone run at its seed).
func runEnsemble(sys *particles.System, hopt hydro.Options, cfg core.Config, threads, k int, jitter float64, steps int, events string) {
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = cfg.Seed + uint64(i)
	}
	ens, err := sd.NewEnsemble(sys, hopt, cfg, threads, sd.EnsembleOptions{Seeds: seeds, Jitter: jitter})
	if err != nil {
		fail(err)
	}
	if events != "" {
		f, err := os.Create(events)
		if err != nil {
			fail(err)
		}
		el := obs.NewEventLog(f)
		defer el.Close()
		ens.Events = el
	}
	fmt.Printf("ensemble: %d members in lockstep, fused kernel m >= %d\n", k, k)
	if err := ens.Run(steps); err != nil {
		fail(err)
	}

	fmt.Printf("\nper-step timing (s):\n")
	per := ens.Timings.PerStep()
	for _, key := range core.PhaseOrder {
		fmt.Printf("  %-14s %.5f\n", key, per[key])
	}
	fmt.Printf("\ndivergence (cross-member RMSD, Angstroms):\n  %6s %12s %12s\n", "step", "mean", "max")
	stride := len(ens.Divergence)/8 + 1
	for i, p := range ens.Divergence {
		if i%stride == 0 || i == len(ens.Divergence)-1 {
			fmt.Printf("  %6d %12.5g %12.5g\n", p.Step, p.MeanRMSD, p.MaxRMSD)
		}
	}
	if r := ens.SpreadGrowthRate(); r != 0 {
		fmt.Printf("spread growth rate: %.4g per step (log-linear fit)\n", r)
	}
	fmt.Printf("\nmember trajectory checksums:\n")
	for i := 0; i < k; i++ {
		s := ens.Member(i).Current().(*sd.Conf).Sys
		fmt.Printf("  member %2d (seed %d): %016x\n", i, seeds[i], s.Checksum())
	}
}

// reportFaults prints the chaos ledger: what the plan injected, what
// the transport detected, and how often recovery replayed.
func reportFaults(inj *faults.Injector) {
	fmt.Printf("\nfault ledger:\n  injected:")
	for k := faults.Drop; k <= faults.Crash; k++ {
		if v := inj.Injected(k); v > 0 {
			fmt.Printf(" %s=%d", k, v)
		}
	}
	if inj.InjectedTotal() == 0 {
		fmt.Printf(" none")
	}
	fmt.Println()
	snap := obs.Default.Snapshot()
	var detected, recovered int64
	for name, v := range snap.Counters {
		switch base, _ := obs.SplitName(name); base {
		case "cluster_halo_retries_total", "cluster_halo_timeouts_total",
			"cluster_corrupt_rejected_total", "cluster_dup_discarded_total",
			"cluster_node_crashes_total", "cluster_halo_lost_total":
			detected += v
		case "core_fault_recoveries_total":
			recovered += v
		}
	}
	fmt.Printf("  detected by transport: %d events\n  recoveries (checkpoint replays): %d\n", detected, recovered)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mrhs-sim:", err)
	os.Exit(1)
}
