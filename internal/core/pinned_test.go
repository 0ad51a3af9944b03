package core_test

import (
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

// pinnedSet is what one preconditioner setting pins: the lone
// original and MRHS runs, three ensemble members (member 0 shares the
// lone original run's seed, hence its bits) and the MRHS run replayed
// across a node crash on two nodes.
type pinnedSet struct {
	name                  string
	precond               func(*bcrs.Matrix) solver.Preconditioner
	original, mrhs, chaos pinned
	members               [3]pinned
	// crashAt is the cluster multiply of the second chunk the crash is
	// injected at: inside its block solve, past the 30 Chebyshev terms.
	crashAt int
}

// TestPinnedTrajectories pins one small SD system, stepped by every
// path through the stepper (amd64, one thread). Under core.NoPrecond —
// the paper's setting, which Tables V-VII and Fig. 5-6 regenerate
// under — the pins are the bits of the commit before Krylov recycling
// left the stepper, unmoved by the reuse window that became the
// default since: an edit to StepOriginal, StepMRHS, secondSolve,
// Ensemble.Step or the recovery snapshot must not move a trajectory by
// one ulp or a solve by one iteration. The default's pins (one IC(0)
// factor per window) were taken when it became the default. Each set
// is checked again over configurations that poison every matrix the
// stepper hands back (poisonConf): the same pins.
func TestPinnedTrajectories(t *testing.T) {
	for _, set := range []pinnedSet{
		{
			name: "NoPrecond", precond: core.NoPrecond, crashAt: 40,
			original: pinned{0xa0101326492d7ad0, 265, 156, 0},
			mrhs:     pinned{0x8a78d8563900e7c9, 115, 156, 42},
			chaos:    pinned{0x33d364e06ef3c3bb, 115, 156, 42},
			members: [3]pinned{
				{0xa0101326492d7ad0, 265, 156, 0},
				{0x94d163a19f0a83a8, 265, 153, 0},
				{0xeb4a35f9dd17c21d, 264, 158, 0},
			},
		},
		{
			name: "default", precond: nil, crashAt: 33,
			original: pinned{0x6972dbc827823b69, 48, 31, 0},
			mrhs:     pinned{0x3096196f0a1aa89b, 23, 31, 10},
			chaos:    pinned{0x1bc59a4909572047, 23, 31, 10},
			members: [3]pinned{
				{0x6972dbc827823b69, 48, 31, 0},
				{0x950dc7c74492c668, 48, 28, 0},
				{0xc2571e3c43f28f7c, 48, 31, 0},
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

	// What sd.NewEnsemble builds: every member on a clone of the system,
	// with an assembler of its own.
	ens, err := core.NewEnsemble(sd.NewConf(newSys(), opt, 1), cfg, core.EnsembleOptions{
		Seeds: []uint64{3, 4, 5},
		Perturb: func(_ int, base core.Configuration) core.Configuration {
			return wrap(sd.NewConf(base.(*sd.Conf).Sys.Clone(), opt, 1))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.Run(steps); err != nil {
		t.Fatal(err)
	}
	for i, want := range set.members {
		r := ens.Member(i)
		check("ensemble member", fingerprint(systemOf(r.Current()), r), want)
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
	chaos.Obs = reg
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

	// The replay is the clean two-node run.
	armed = false
	clean := newRunner(rcfg)
	if err := clean.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	check("mrhs on two nodes, no crash", fingerprint(systemOf(clean.Current()), clean), set.chaos)
}
