// Command mrhs-sim runs a Stokesian dynamics simulation with either
// the MRHS algorithm (Algorithm 2) or the original algorithm
// (Algorithm 1), and prints the per-phase timing breakdown and
// iteration statistics.
//
// Example:
//
//	mrhs-sim -n 3000 -phi 0.5 -alg mrhs -m 16 -steps 32
//	mrhs-sim -n 3000 -phi 0.5 -alg original -steps 32
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
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mrhs-sim:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns every failure instead of
// exiting, so the deferred cleanup (the recovery checkpoint, the
// trajectory and event files, the metrics listener) runs on every exit.
func run(args []string, stdout io.Writer) (err error) {
	// The set shadows the package so each declaration still reads
	// flag.X("name", …), the form cmd/docs-gate checks documented
	// flags against.
	flag := flag.NewFlagSet("mrhs-sim", flag.ExitOnError)
	var (
		n       = flag.Int("n", 3000, "number of particles")
		phi     = flag.Float64("phi", 0.5, "volume occupancy (0, 0.55]")
		alg     = flag.String("alg", "mrhs", "algorithm: mrhs, original")
		m       = flag.Int("m", 16, "right-hand sides per MRHS chunk")
		steps   = flag.Int("steps", 32, "time steps to simulate")
		dt      = flag.Float64("dt", 2, "time step size")
		seed    = flag.Uint64("seed", 1, "random seed (particle packing and noise stream)")
		threads = flag.Int("threads", 1, "worker-pool threads the whole step splits over")
		tol     = flag.Float64("tol", 1e-6, "solver tolerance")
		ckpt    = flag.String("ckpt", "", "write a checkpoint to this file after the run")
		resume  = flag.String("resume", "", "resume from a checkpoint file (overrides -n, -phi, -seed)")
		xyz     = flag.String("xyz", "", "write an XYZ trajectory (one frame per step) to this file")
		precond = flag.String("precond", "ic0", "preconditioner reused by every solve of a window of -m steps: ic0, none (the paper's setting)")

		nodes       = flag.Int("nodes", 0, "run every multiply on a simulated p-node cluster (0: single node; fault runs default to 4)")
		faultsSpec  = flag.String("faults", "", "fault-injection spec, e.g. 'drop:rate=0.02;crash:node=1,at=5' (see internal/cluster/faults)")
		chaosRun    = flag.Bool("chaos", false, "run under the chaos preset fault plan (unless -faults overrides it)")
		recoverCkpt = flag.String("recover-ckpt", "", "recovery checkpoint path for fault runs (default: a temp file)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. :9090 or :0)")
		obsJSON     = flag.String("obs-json", "", "write an obs metrics snapshot (JSON) to this file after the run")
		events      = flag.String("events", "", "write per-step structured events (JSONL) to this file")
	)
	flag.Parse(args)
	printf := func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) }

	if *alg != "mrhs" && *alg != "original" {
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	var pre func(*bcrs.Matrix) solver.Preconditioner
	switch *precond {
	case "ic0": // core's default
	case "none":
		pre = core.NoPrecond
	default:
		return fmt.Errorf("unknown preconditioner %q", *precond)
	}

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			return err
		}
		defer srv.Close()
		printf("metrics: serving on http://%s/metrics\n", srv.Addr())
	}

	var sys *particles.System
	startStep, guessErr := 0, 0.0
	if *resume != "" {
		st, err := checkpoint.LoadFile(*resume)
		if err != nil {
			return err
		}
		sys = st.System()
		startStep, guessErr = st.Step, st.GuessErr
		*seed = st.Seed
		*phi = sys.Phi
		printf("resumed from %s at step %d\n", *resume, startStep)
	} else {
		var err error
		sys, err = particles.New(particles.Options{N: *n, Phi: *phi, Seed: *seed})
		if err != nil {
			return err
		}
	}
	printf("system: %d particles, phi=%.2f, box=%.1f A\n", sys.N, sys.VolumeFraction(), sys.Box)

	cfg := core.Config{Dt: *dt, M: *m, Seed: *seed, Tol: *tol, Precond: pre}
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
		plan, err := faults.Parse(spec)
		if err != nil {
			return err
		}
		inj = plan.NewInjector(*seed)
		if *nodes == 0 {
			*nodes = 4
		}
		path := *recoverCkpt
		if path == "" {
			f, err := os.CreateTemp("", "mrhs-recover-*.ckpt")
			if err != nil {
				return err
			}
			path = f.Name()
			f.Close()
			defer os.Remove(path)
		}
		cfg.Recovery = &core.Recovery{
			Snapshotter: sd.FileSnapshotter(path, hopt, *threads, *seed),
		}
		printf("faults: plan %q armed on %d nodes (recovery checkpoint %s)\n", plan, *nodes, path)
	}

	var sim *sd.Simulation
	if *nodes > 0 {
		sim = sd.NewDistributedOpts(sys, hopt, cfg, sd.DistOptions{
			P: *nodes, Threads: *threads, Faults: inj, Retry: cluster.Backoff{Seed: *seed},
		})
	} else {
		sim = sd.New(sys, hopt, cfg, *threads)
	}
	sim.SkipTo(startStep)
	sim.SetGuessErr(guessErr)
	if *events != "" {
		// openErr, not err: keep must see the named result.
		f, openErr := os.Create(*events)
		if openErr != nil {
			return openErr
		}
		el := obs.NewEventLog(f)
		defer keep(&err, el.Close)
		sim.Events = el
		if inj != nil {
			inj.Events = el
		}
	}
	var frameErr error
	if *xyz != "" {
		f, openErr := os.Create(*xyz)
		if openErr != nil {
			return openErr
		}
		defer keep(&err, f.Close)
		tw := trajio.NewWriter(f)
		defer keep(&err, tw.Flush)
		sim.OnStep = func(step int, u []float64, dt float64) {
			// Positions reflect the state *before* this step's
			// displacement; frames trail by one step, which is
			// immaterial for visualization. The first failed frame
			// fails the run once it returns.
			if frameErr == nil {
				frameErr = tw.WriteFrame(sim.System(), fmt.Sprintf("step %d t=%g", step, float64(step)*dt))
			}
		}
	}
	_, nb, nnz, nnzb, bpr := sim.MatrixStats()
	printf("matrix: nb=%d nnz=%d nnzb=%d nnzb/nb=%.1f\n", nb, nnz, nnzb, bpr)
	if *alg == "mrhs" {
		err = sim.RunMRHS(*steps)
	} else {
		err = sim.RunOriginal(*steps)
	}
	if err == nil {
		err = frameErr
	}
	if err != nil {
		return err
	}
	rep := sim.Report()
	printf("\nper-step timing (s):\n")
	for _, k := range core.PhaseOrder {
		printf("  %-14s %.5f\n", k, rep.PerStep[k])
	}
	printf("\nmean iterations: first solve %.1f, second solve %.1f\n",
		rep.MeanFirstIters, rep.MeanSecondIters)
	// The checksum hashes the exact position bits: two runs agree
	// iff their trajectories are bitwise identical, which is how
	// chaos runs are validated against fault-free ones (use the
	// same -seed and -nodes).
	printf("trajectory checksum: %016x\n", sim.System().Checksum())
	if inj != nil {
		reportFaults(stdout, inj)
	}
	if *ckpt != "" {
		st := checkpoint.FromSystem(sim.System(), sim.StepIndex(), *seed)
		st.GuessErr = sim.GuessErr()
		if err := checkpoint.SaveFile(*ckpt, st); err != nil {
			return err
		}
		printf("checkpoint written to %s (step %d)\n", *ckpt, st.Step)
	}

	if rep := perf.KernelObsReport(nil); len(rep) > 0 {
		printf("\nkernel counters (bcrs_mul, per m):\n")
		printf("  %4s %8s %10s %8s %9s %6s\n", "m", "calls", "secs", "GB/s", "Gflop/s", "r(m)")
		for _, k := range rep {
			printf("  %4d %8d %10.4f %8.2f %9.2f %6.2f\n",
				k.M, k.Calls, k.Secs, k.GBps, k.Gflops, k.R)
		}
	}
	if *obsJSON != "" {
		if err := obs.Default.Snapshot().SaveFile(*obsJSON); err != nil {
			return err
		}
		printf("obs snapshot written to %s\n", *obsJSON)
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
		return fmt.Errorf("%d solver non-convergence event(s) recorded", failures)
	}
	return nil
}

// keep runs a deferred flush or close and keeps its error when the run
// has none, so a file left short on disk fails the run.
func keep(err *error, close func() error) {
	if cerr := close(); *err == nil {
		*err = cerr
	}
}

// reportFaults prints the chaos ledger: what the plan injected, what
// the transport detected, and how often recovery replayed.
func reportFaults(stdout io.Writer, inj *faults.Injector) {
	printf := func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) }
	printf("\nfault ledger:\n  injected:")
	for k := faults.Drop; k <= faults.Crash; k++ {
		if v := inj.Injected(k); v > 0 {
			printf(" %s=%d", k, v)
		}
	}
	if inj.InjectedTotal() == 0 {
		printf(" none")
	}
	printf("\n")
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
	printf("  detected by transport: %d events\n  recoveries (checkpoint replays): %d\n", detected, recovered)
}
