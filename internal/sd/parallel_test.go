package sd

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/core"
	"repro/internal/hydro"
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

// TestRunDeterministicAtFixedThreads: two identical runs at the same
// pool size must produce bitwise-identical trajectories — the
// fixed-thread-count half of the determinism contract that checkpoint
// replay relies on.
func TestRunDeterministicAtFixedThreads(t *testing.T) {
	t.Cleanup(func() { parallel.SetThreads(1) })
	cfg := core.Config{Dt: 0.5, M: 3, Seed: 1, ChebOrder: 10}
	run := func(threads int) uint64 {
		sim := New(newTestSystem(t), hydro.Options{}, cfg, threads)
		if err := sim.RunMRHS(5); err != nil {
			t.Fatal(err)
		}
		return sim.System().Checksum()
	}
	first := run(2)
	if again := run(2); again != first {
		t.Fatalf("threads=2 reruns differ: %016x vs %016x", again, first)
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
	t.Cleanup(func() { parallel.SetThreads(1) })
	opt := hydro.Options{}
	cfg := core.Config{Dt: 0.5, M: 3, Seed: seed, ChebOrder: 10}

	clean := NewDistributedOpts(newTestSystem(t), opt, cfg, DistOptions{P: p, Threads: threads})
	if err := clean.RunMRHS(steps); err != nil {
		t.Fatal(err)
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
		MaxRetries:  5,
		Snapshotter: FileSnapshotter(ckpt, opt, threads, seed),
	}
	chaos := NewDistributedOpts(newTestSystem(t), opt, ccfg, DistOptions{
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
