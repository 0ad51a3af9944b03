package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/obs"
)

// distToy returns a Distribute callback that partitions every
// assembled matrix round-robin over p simulated nodes, arming the
// shared injector (when non-nil) on each cluster.
func distToy(p int, inj *faults.Injector, seed uint64) func(a *bcrs.Matrix, c Configuration) DistOp {
	return func(a *bcrs.Matrix, _ Configuration) DistOp {
		part := make([]int, a.NB())
		for i := range part {
			part[i] = i % p
		}
		cl, err := cluster.New(a, part, p)
		if err != nil {
			panic(err)
		}
		if inj != nil {
			cl.SetFaults(inj, cluster.Backoff{Base: 20 * time.Microsecond,
				Max: 200 * time.Microsecond, MaxAttempts: 10,
				Deadline: 5 * time.Second, Seed: seed})
		}
		return cl
	}
}

func toyState(r *Runner) []float64 { return r.Current().(*toyConfig).state }

// A seeded chaos run — drops, a crash, recovery replays — must land
// on the bitwise identical trajectory of the fault-free distributed
// run: faults never corrupt accepted data, the noise is pure in
// (Seed, k), and the replay restores the exact pre-chunk state.
func TestRecoveryReplayMatchesCleanRunMRHS(t *testing.T) {
	const steps, p = 8, 2
	cfg := Config{Dt: 0.05, M: 4, Seed: 9}

	clean := NewRunner(newToy(24, 6), cfg)
	clean.cfg.Distribute = distToy(p, nil, 1)
	if err := clean.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}

	plan, err := faults.Parse("drop:rate=0.05;crash:node=1,at=3")
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.NewInjector(1)
	reg := obs.NewRegistry()
	chaos := NewRunner(newToy(24, 6), cfg)
	chaos.cfg.Distribute = distToy(p, inj, 1)
	chaos.cfg.Recovery = &Recovery{}
	chaos.Obs = reg
	var frames []int
	chaos.OnStep = func(step int, _ []float64, _ float64) { frames = append(frames, step) }
	if err := chaos.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}

	if inj.Injected(faults.Crash) != 1 {
		t.Fatalf("crash injected %d times, want 1", inj.Injected(faults.Crash))
	}
	rec := reg.Counter(obs.Label("core_fault_recoveries_total", "phase", "chunk")).Value()
	if rec < 1 {
		t.Fatal("no recovery recorded despite an injected crash")
	}
	if reg.Counter(obs.Label("core_faults_detected_total", "phase", "chunk")).Value() < 1 {
		t.Fatal("no detected fault recorded")
	}

	sc, sf := toyState(clean), toyState(chaos)
	for i := range sc {
		if sc[i] != sf[i] {
			t.Fatalf("chaos trajectory diverged from clean distributed run at %d: %g != %g",
				i, sf[i], sc[i])
		}
	}
	// The replay must not have re-emitted trajectory frames.
	if len(frames) != steps {
		t.Fatalf("OnStep fired %d times for %d steps", len(frames), steps)
	}
	for i, s := range frames {
		if s != i {
			t.Fatalf("OnStep frame %d has step %d", i, s)
		}
	}
	if len(chaos.Records) != steps {
		t.Fatalf("Records has %d entries for %d steps", len(chaos.Records), steps)
	}
}

// Same property for the original algorithm's per-step recovery.
func TestRecoveryReplayMatchesCleanRunOriginal(t *testing.T) {
	const steps, p = 5, 2
	cfg := Config{Dt: 0.05, Seed: 4}

	clean := NewRunner(newToy(20, 3), cfg)
	clean.cfg.Distribute = distToy(p, nil, 2)
	if err := clean.RunOriginal(steps); err != nil {
		t.Fatal(err)
	}

	plan, err := faults.Parse("crash:node=0,at=2")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	chaos := NewRunner(newToy(20, 3), cfg)
	chaos.cfg.Distribute = distToy(p, plan.NewInjector(2), 2)
	chaos.cfg.Recovery = &Recovery{}
	chaos.Obs = reg
	if err := chaos.RunOriginal(steps); err != nil {
		t.Fatal(err)
	}
	if reg.Counter(obs.Label("core_fault_recoveries_total", "phase", "step")).Value() < 1 {
		t.Fatal("no recovery recorded")
	}
	sc, sf := toyState(clean), toyState(chaos)
	for i := range sc {
		if sc[i] != sf[i] {
			t.Fatalf("trajectories diverged at %d", i)
		}
	}
}

// Without Recovery the fault panic still surfaces as an error, not a
// panic — the silently-unreachable-error fix.
func TestFaultSurfacesAsErrorWithoutRecovery(t *testing.T) {
	plan, err := faults.Parse("crash:node=0,at=1")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(newToy(16, 2), Config{Dt: 0.05, M: 4, Seed: 1})
	r.cfg.Distribute = distToy(2, plan.NewInjector(3), 3)
	err = r.RunMRHS(4)
	if err == nil {
		t.Fatal("crashed run reported no error")
	}
	if !faults.IsFault(err) {
		t.Fatalf("error %v is not a fault error", err)
	}
}

// Persistent faults exhaust the retry budget and surface the last
// fault: six crash rules outlast the first attempt and maxRetries = 5
// replays.
func TestRecoveryGivesUpAfterMaxRetries(t *testing.T) {
	spec := strings.TrimSuffix(strings.Repeat("crash:node=0,at=1;", 6), ";")
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(newToy(16, 2), Config{Dt: 0.05, M: 4, Seed: 1})
	r.cfg.Distribute = distToy(2, plan.NewInjector(4), 4)
	r.cfg.Recovery = &Recovery{}
	r.Obs = obs.NewRegistry()
	err = r.RunMRHS(4)
	if err == nil {
		t.Fatal("run survived 6 crash rules with 5 retries")
	}
	if !faults.IsFault(err) {
		t.Fatalf("error %v does not wrap the fault", err)
	}
	if !strings.Contains(err.Error(), "after 5 replays") {
		t.Fatalf("error %v does not report the exhausted budget", err)
	}
}

// guardFaults converts only fault panics; anything else propagates.
func TestGuardFaultsPassthrough(t *testing.T) {
	err := guardFaults(func() error {
		panic(&faults.Error{Kind: faults.Crash, Node: 0, Msg: "node 0 crashed"})
	})
	if !faults.IsFault(err) {
		t.Fatalf("fault panic became %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-fault panic was swallowed")
		}
	}()
	_ = guardFaults(func() error { panic("bug") })
}
