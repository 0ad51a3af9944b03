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
	"repro/internal/particles"
)

// End-to-end chaos acceptance: a distributed SD run under a seeded
// fault plan — dropped halo messages plus a node crash recovered
// through an on-disk checkpoint — must finish with the bitwise
// trajectory checksum of the fault-free distributed run with the same
// physics seed and node count.
func TestChaosRunMatchesCleanChecksum(t *testing.T) {
	const (
		steps = 6
		p     = 2
		seed  = 1
	)
	opt := hydro.Options{}
	cfg := core.Config{Dt: 0.5, M: 3, Seed: seed, ChebOrder: 10}
	newSys := func() *particles.System {
		sys, err := particles.New(particles.Options{N: 30, Phi: 0.3, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	clean := NewDistributedOpts(newSys(), opt, cfg, DistOptions{P: p})
	if err := clean.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	want := clean.System().Checksum()

	plan, err := faults.Parse("drop:rate=0.05;crash:node=1,at=4")
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.NewInjector(seed)
	ckpt := filepath.Join(t.TempDir(), "chaos.ckpt")
	ccfg := cfg
	ccfg.Recovery = &core.Recovery{
		Snapshotter: FileSnapshotter(ckpt, opt, 1, seed),
	}
	chaos := NewDistributedOpts(newSys(), opt, ccfg, DistOptions{
		P:      p,
		Faults: inj,
		Retry: cluster.Backoff{Base: 20 * time.Microsecond,
			Max: 200 * time.Microsecond, MaxAttempts: 10,
			Deadline: 5 * time.Second, Seed: seed},
	})
	reg := obs.NewRegistry()
	chaos.Obs = reg
	if err := chaos.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}

	if inj.Injected(faults.Crash) != 1 {
		t.Fatalf("crash injected %d times, want 1", inj.Injected(faults.Crash))
	}
	if inj.Injected(faults.Drop) == 0 {
		t.Error("no drops injected at rate 0.05 — raise the rate or steps")
	}
	if reg.Counter(obs.Label("core_fault_recoveries_total", "phase", "chunk")).Value() < 1 {
		t.Fatal("crash was not recovered through the checkpoint")
	}

	got := chaos.System().Checksum()
	if got != want {
		t.Fatalf("chaos trajectory checksum %016x differs from clean run %016x", got, want)
	}
}
