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
	// injected at: where it makes its guesses, past the square root's
	// multiplies (30 Chebyshev terms under NoPrecond, the Lanczos steps
	// of the slowest column under the default) — inside the block solve
	// under NoPrecond, the multiply giving step 0's right-hand side under
	// the default. The test asserts it from the chunk's record.
	crashAt int
}

// TestPinnedTrajectories pins one small SD system, stepped by every
// path through the stepper (amd64, one thread). Under core.NoPrecond —
// the paper's setting, which Tables V-VII and Fig. 5-6 regenerate
// under — the Algorithm 1 pins are the bits of the commit before Krylov
// recycling left the stepper, unmoved by the reuse window that became
// the default since: an edit to StepOriginal, finish or the
// recovery snapshot must not move a trajectory by one ulp or a solve by
// one iteration. Its MRHS pins were taken again when the block solve
// began stopping at a tolerance set from the previous chunk's guess
// errors (the second chunk's block solve stops early and a warm CG
// finishes its column 0, so the bits move; 42 block iterations became
// 37 and the first solves kept their count). The default's pins (one
// IC(0) factor per window, the Brownian forces through it by
// preconditioned Lanczos) were taken when the square root moved onto
// the factor; its Algorithm 1 pins were taken again when that algorithm
// began sampling the first velocity through the factor (the inverse
// root's force differed from the forward root's within the roots'
// tolerance, so the bits moved; no first solve runs, hence 0 first
// iterations, and the second solves kept their counts), its MRHS pins when Algorithm 2 began
// drawing its guesses the same way (no block solve runs, hence 0 block
// iterations; the first solves took 23 iterations where they took 22).
// Every pin that moved was taken again when the general multiply began
// fusing its block rows' multiply-adds (bcrs's spmv1 recurrence): the new
// rounding moved Algorithm 1's first solves under NoPrecond from 265
// iterations to 262 (264 to 265 at noise seed 5) and the MRHS run's
// block solve from 37 iterations to 36 (first solves 115 to 116); under
// the default only bits moved, and two of its trajectories kept
// theirs. The default's pins but noise seed 4's were taken again when
// the Lanczos root's inner products moved onto multivec's lane sums
// (row order, where the root's own pass had added rows in fours): only
// bits moved, every iteration count held. The default's MRHS pins were
// taken again when its warm steps began drawing their force through the
// inverse root too, Algorithm 1's force at the same configuration, where
// they had run a forward root of their own: the first solves took 22
// iterations where they took 23. Every pin was taken again when the
// lane reductions — CG's and the Lanczos root's inner products and
// norms, and the root's combine sums — took multivec's eight-partial
// order: under NoPrecond Algorithm 1's first solves at noise seed 5
// took 264 iterations where they took 265; every other count held.
// Each set is checked again over
// configurations that poison every matrix the stepper hands back
// (poisonConf): the same pins.
func TestPinnedTrajectories(t *testing.T) {
	for _, set := range []pinnedSet{
		{
			name: "NoPrecond", precond: core.NoPrecond, crashAt: 40,
			original: pinned{0xe409aa5fab8c0323, 262, 156, 0},
			mrhs:     pinned{0xb53ff57029a08bf5, 116, 156, 36},
			chaos:    pinned{0x214f7daffabe9018, 115, 156, 37},
			reseeded: [2]pinned{
				{0x967d9cb4aa89366e, 265, 153, 0},
				{0xec62a6206ed505d3, 264, 158, 0},
			},
		},
		{
			name: "default", precond: nil, crashAt: 4,
			original: pinned{0x159943c1cf367234, 0, 31, 0},
			mrhs:     pinned{0x69d869a5ddf6c5ff, 22, 31, 0},
			chaos:    pinned{0x375c8df298fb9710, 22, 31, 0},
			reseeded: [2]pinned{
				{0x1cc65d650e699e9f, 0, 28, 0},
				{0x2174e18cc633d72d, 0, 31, 0},
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

	// One node crash where the second chunk makes its guesses (the injector is
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
	rcfg.Recovery = &core.Recovery{}
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
	// The crash landed where the guesses are made: R_0's cluster
	// multiplies for the square root first, then once for the block
	// solve's residual and once per block iteration, or once for the
	// direct guesses' R_0*u_0.
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
