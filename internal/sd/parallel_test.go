package sd

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/particles"
)

func newTestSystem(t *testing.T) *particles.System {
	t.Helper()
	sys, err := particles.New(particles.Options{N: 30, Phi: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRunIgnoresThreadCount: every reduction of a step sums row chunks
// fixed by the row count alone, and every other split writes disjoint
// outputs, so a trajectory has the same bits on every pool size — the
// determinism contract checkpoint replay relies on, and what keeps a
// run's checksum from moving with -threads. Both algorithms run under
// both windows, the default IC(0) one and the paper's unpreconditioned
// one. At N = 3000 (9000 rows) the block solve's Gram products and the
// lane reductions sum two row chunks, and the multiply (2.2 MB) and
// assembly's candidate pass split over the pool, which every pooled run
// must show.
func TestRunIgnoresThreadCount(t *testing.T) {
	saved := parallel.Threads()
	t.Cleanup(func() { parallel.SetThreads(saved) })
	sys, err := particles.New(particles.Options{N: 3000, Phi: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []string{"default", "none"} {
		cfg := core.Config{Dt: 2, M: 8, Seed: 1}
		if window == "none" {
			cfg.Precond = core.NoPrecond
		}
		for _, alg := range []string{"original", "mrhs"} {
			var want uint64
			for _, threads := range []int{1, 2, 4} {
				sim := New(sys, hydro.Options{Phi: 0.4}, cfg, threads)
				run := sim.RunMRHS
				if alg == "original" {
					run = sim.RunOriginal
				}
				if !dispatched(t, func() error { return run(8) }) && threads > 1 {
					t.Errorf("%s window, %s, %d threads: nothing split over the pool", window, alg, threads)
				}
				got := sim.System().Checksum()
				if threads == 1 {
					want = got
				} else if got != want {
					t.Errorf("%s window, %s: checksum %016x at %d threads, %016x at one", window, alg, got, threads, want)
				}
			}
		}
	}
}

// TestChaosRunWithThreadsMatchesCleanChecksum is the chaos acceptance
// test with the worker pool engaged: a crash recovered through an
// on-disk checkpoint at threads=2 must replay onto the bitwise
// trajectory of the fault-free threads=2 run. This is why NewConf
// funnels the threads knob into the process pool — a recovery rebuilt
// with a different pool size would fork the trajectory.
func TestChaosRunWithThreadsMatchesCleanChecksum(t *testing.T) {
	const (
		steps   = 6
		p       = 2
		threads = 2
		seed    = 1
	)
	saved := parallel.Threads()
	t.Cleanup(func() { parallel.SetThreads(saved) })
	opt := hydro.Options{}
	cfg := core.Config{Dt: 0.5, M: 3, Seed: seed, ChebOrder: 10}
	// At N = 800 assembly's candidate pass streams enough to split.
	newSystem := func() *particles.System {
		sys, err := particles.New(particles.Options{N: 800, Phi: 0.3, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	clean := NewDistributedOpts(newSystem(), opt, cfg, DistOptions{P: p, Threads: threads})
	if !dispatched(t, func() error { return clean.RunMRHS(steps) }) {
		t.Fatal("the clean run split nothing over the pool")
	}
	want := clean.System().Checksum()

	plan, err := faults.Parse("drop:rate=0.05;crash:node=1,at=4")
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.NewInjector(seed)
	ckpt := filepath.Join(t.TempDir(), "chaos-threads.ckpt")
	ccfg := cfg
	ccfg.Recovery = &core.Recovery{
		Snapshotter: FileSnapshotter(ckpt, opt, threads, seed),
	}
	chaos := NewDistributedOpts(newSystem(), opt, ccfg, DistOptions{
		P:       p,
		Threads: threads,
		Faults:  inj,
		Retry: cluster.Backoff{Base: 20 * time.Microsecond,
			Max: 200 * time.Microsecond, MaxAttempts: 10,
			Deadline: 5 * time.Second, Seed: seed},
	})
	if err := chaos.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	if inj.Injected(faults.Crash) != 1 {
		t.Fatalf("crash injected %d times, want 1", inj.Injected(faults.Crash))
	}

	if got := chaos.System().Checksum(); got != want {
		t.Fatalf("threads=%d chaos checksum %016x differs from clean run %016x", threads, got, want)
	}
}

// dispatched runs fn, failing t on its error, and reports whether it
// split some op over the pool: whether parallel_jobs_total moved.
func dispatched(t *testing.T, fn func() error) bool {
	t.Helper()
	jobs := obs.Default.Counter("parallel_jobs_total")
	before := jobs.Value()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return jobs.Value() != before
}

// TestTwoChainsShareNoWorkspace steps two simulations over one particle
// system from two goroutines — the shape of a verifier beside a runner,
// or of two runners in one process. Each NewConf must have given its
// chain its own assembler: under -race a shared workspace is a reported
// race, and without it a fork of the two (identically seeded)
// trajectories.
func TestTwoChainsShareNoWorkspace(t *testing.T) {
	sys := newTestSystem(t)
	cfg := core.Config{Dt: 0.5, M: 3, Seed: 1, ChebOrder: 10}
	sims := []*Simulation{New(sys, hydro.Options{}, cfg, 1), New(sys, hydro.Options{}, cfg, 1)}
	errs := make(chan error, len(sims)) // one result per simulation
	for _, sim := range sims {
		go func() { errs <- sim.RunMRHS(6) }()
	}
	for range sims {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if a, b := sims[0].System().Checksum(), sims[1].System().Checksum(); a != b {
		t.Fatalf("concurrent chains forked: %016x vs %016x", a, b)
	}
}
