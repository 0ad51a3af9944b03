package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/obs"
	"repro/internal/particles"
	"repro/internal/partition"
	"repro/internal/sd"
	"repro/internal/solver"
)

// pinned is one trajectory's fingerprint: the bitwise checksum of the
// final particle system and the total iterations of each solve kind.
type pinned struct {
	checksum             uint64
	first, second, block int
}

func fingerprint(sys *particles.System, r *core.Runner) pinned {
	p := pinned{checksum: sys.Checksum(), block: r.BlockIters}
	for _, rec := range r.Records {
		p.first += rec.FirstIters
		p.second += rec.SecondIters
	}
	return p
}

// pinnedSet is what one preconditioner setting pins: the original and
// MRHS runs, the original run again under noise seeds 4 and 5 (the
// same packing, other noise streams) and the MRHS run replayed across
// a node crash on two nodes.
type pinnedSet struct {
	name                  string
	precond               func(*bcrs.Matrix) solver.Preconditioner
	original, mrhs, chaos pinned
	reseeded              [2]pinned
	// crashAt is the cluster multiply of the second chunk the crash is
	// injected at: inside its block solve, past the square root's
	// multiplies (30 Chebyshev terms under NoPrecond, the Lanczos steps
	// of the slowest column under the default). The test asserts it from
	// the chunk's record.
	crashAt int
}

// TestPinnedTrajectories pins one small SD system, stepped by every
// path through the stepper (amd64, one thread). Under core.NoPrecond —
// the paper's setting, which Tables V-VII and Fig. 5-6 regenerate
// under — the pins are the bits of the commit before Krylov recycling
// left the stepper, unmoved by the reuse window that became the
// default since: an edit to StepOriginal, StepMRHS, secondSolve or the
// recovery snapshot must not move a trajectory by one ulp or a solve by
// one iteration. The default's pins (one IC(0) factor per window, the
// Brownian forces through it by preconditioned Lanczos) were taken when
// the square root moved onto the factor. Each set is checked again over
// configurations that poison every matrix the stepper hands back
// (poisonConf): the same pins.
func TestPinnedTrajectories(t *testing.T) {
	for _, set := range []pinnedSet{
		{
			name: "NoPrecond", precond: core.NoPrecond, crashAt: 40,
			original: pinned{0xa0101326492d7ad0, 265, 156, 0},
			mrhs:     pinned{0x8a78d8563900e7c9, 115, 156, 42},
			chaos:    pinned{0x33d364e06ef3c3bb, 115, 156, 42},
			reseeded: [2]pinned{
				{0x94d163a19f0a83a8, 265, 153, 0},
				{0xeb4a35f9dd17c21d, 264, 158, 0},
			},
		},
		{
			name: "default", precond: nil, crashAt: 6,
			original: pinned{0x8e3fb66d3c504d1a, 48, 31, 0},
			mrhs:     pinned{0x20a061b6da5fb73b, 22, 31, 10},
			chaos:    pinned{0x528a8167dea80f72, 22, 31, 10},
			reseeded: [2]pinned{
				{0x68b569ce35b1ca8e, 47, 28, 0},
				{0x2ad9c2aac15b2fb7, 47, 31, 0},
			},
		},
	} {
		t.Run(set.name, func(t *testing.T) {
			checkPinned(t, set, plain)
			t.Run("poisoned", func(t *testing.T) { checkPinned(t, set, poisoned) })
		})
	}
}

func checkPinned(t *testing.T, set pinnedSet, wrap func(core.Configuration) core.Configuration) {
	const steps = 8 // two chunks of m = 4
	opt := hydro.Options{Phi: 0.3}
	cfg := core.Config{Dt: 2, M: 4, Seed: 3, Precond: set.precond}
	newSys := func() *particles.System {
		sys, err := particles.New(particles.Options{N: 60, Phi: 0.3, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	check := func(name string, got, want pinned) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got {%#016x, %d, %d, %d}, pinned {%#016x, %d, %d, %d}", name,
				got.checksum, got.first, got.second, got.block,
				want.checksum, want.first, want.second, want.block)
		}
	}

	newRunner := func(cfg core.Config) *core.Runner {
		return core.NewRunner(wrap(sd.NewConf(newSys(), opt, 1)), cfg)
	}
	orig := newRunner(cfg)
	if err := orig.RunOriginal(steps); err != nil {
		t.Fatal(err)
	}
	check("original", fingerprint(systemOf(orig.Current()), orig), set.original)

	mrhs := newRunner(cfg)
	if err := mrhs.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	check("mrhs", fingerprint(systemOf(mrhs.Current()), mrhs), set.mrhs)

	for i, want := range set.reseeded {
		scfg := cfg
		scfg.Seed = cfg.Seed + 1 + uint64(i)
		r := newRunner(scfg)
		if err := r.RunOriginal(steps); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("original at noise seed %d", scfg.Seed), fingerprint(systemOf(r.Current()), r), want)
	}

	// One node crash in the second chunk's block solve (the injector is
	// armed only once the first chunk is done; a cluster counts its own
	// multiplies), so the replay has records and block iterations to
	// roll back.
	plan, err := faults.Parse(fmt.Sprintf("crash:node=1,at=%d", set.crashAt))
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.NewInjector(1)
	armed := false
	rcfg := cfg
	rcfg.Recovery = &core.Recovery{MaxRetries: 3}
	rcfg.Distribute = func(a *bcrs.Matrix, c core.Configuration) core.DistOp {
		const p = 2
		cl, err := cluster.New(a, partition.RCB(a, systemOf(c).Pos, p).Part, p)
		if err != nil {
			t.Fatal(err)
		}
		if armed {
			cl.SetFaults(inj, cluster.Backoff{Base: 20 * time.Microsecond, Max: 200 * time.Microsecond,
				MaxAttempts: 10, Deadline: 5 * time.Second, Seed: 1})
		}
		return cl
	}
	chaos := newRunner(rcfg)
	reg := obs.NewRegistry()
	var events bytes.Buffer
	chaos.Obs, chaos.Events = reg, obs.NewEventLog(&events)
	if err := chaos.RunMRHS(steps / 2); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := chaos.RunMRHS(steps / 2); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(obs.Label("core_fault_recoveries_total", "phase", "chunk")).Value(); n != 1 {
		t.Fatalf("chunk recoveries = %d, want the one injected crash replayed once", n)
	}
	check("mrhs under recovery", fingerprint(systemOf(chaos.Current()), chaos), set.chaos)
	// The crash landed in the block solve: R_0's cluster multiplies for
	// the square root first, then once for the block solve's residual
	// and once per block iteration.
	if err := chaos.Events.Flush(); err != nil {
		t.Fatal(err)
	}
	var last map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(events.Bytes()), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec["event"] == "chunk" {
			last = rec
		}
	}
	sqrt, _ := last["sqrt_iters"].(float64)
	block, _ := last["block_iters"].(float64)
	if !(int(sqrt) < set.crashAt && set.crashAt <= int(sqrt+block)+1) {
		t.Errorf("crash at multiply %d of the second chunk, whose square root took %v and block solve %v+1", set.crashAt, sqrt, block)
	}

	// The replay is the clean two-node run.
	armed = false
	clean := newRunner(rcfg)
	if err := clean.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	check("mrhs on two nodes, no crash", fingerprint(systemOf(clean.Current()), clean), set.chaos)
}
