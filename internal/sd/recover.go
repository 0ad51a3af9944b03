package sd

import (
	"fmt"

	"repro/internal/bcrs"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/particles"
	"repro/internal/partition"
)

// DistOptions configures NewDistributedOpts: the node count and the
// fault-tolerance and threading knobs.
type DistOptions struct {
	// P is the simulated node count.
	P int
	// Threads is the process-wide worker-pool size shared by all
	// layers of the step (0 or 1 means serial), installed by NewConf.
	// The P node goroutines multiply their strips on that one pool,
	// whose dispatch never blocks, so they cannot oversubscribe it.
	Threads int
	// Faults, if non-nil, arms every per-step cluster with this
	// injector; the injector is shared across clusters, so once-only
	// rules (crash) fire once per run, not once per assembled matrix.
	Faults *faults.Injector
	// Retry is the transport retry policy when Faults is set; zero
	// values take the cluster.Backoff defaults.
	Retry cluster.Backoff
}

// NewDistributedOpts builds a simulation in which every matrix multiply
// — the CG solves, the block solves, and the Chebyshev Brownian-force
// recurrence — executes on a simulated d.P-node cluster: each assembled
// resistance matrix is RCB-partitioned by particle position and wrapped
// in the halo-exchange operator of internal/cluster, optionally running
// over the fault-injected transport. This is the distributed-memory SD
// simulation the paper reports not yet having (Section V-A), at the
// functional level (the physics and the message pattern are real; the
// nodes are goroutines).
func NewDistributedOpts(sys *particles.System, opt hydro.Options, cfg core.Config, d DistOptions) *Simulation {
	cfg.Distribute = func(a *bcrs.Matrix, c core.Configuration) core.DistOp {
		sc := c.(*Conf)
		r := partition.RCB(a, sc.Sys.Pos, d.P)
		cl, err := cluster.New(a, r.Part, d.P)
		if err != nil {
			// Construction only fails on malformed partitions — a
			// programming error, not a runtime condition.
			panic(fmt.Sprintf("sd: distributed wrap failed: %v", err))
		}
		if d.Faults != nil {
			cl.SetFaults(d.Faults, d.Retry)
		}
		return cl
	}
	return &Simulation{Runner: core.NewRunner(NewConf(sys, opt, d.Threads), cfg)}
}

// FileSnapshotter adapts internal/checkpoint to core.Snapshotter: the
// recovery snapshots of a run are written through the same atomic
// save/restore codec a process restart would use, so crash recovery
// exercises the real persistence path. The options and seed must
// match the running simulation — the restored configuration is
// rebuilt with them, and the seed is verified on restore.
func FileSnapshotter(path string, opt hydro.Options, threads int, seed uint64) core.Snapshotter {
	return &fileSnapshotter{path: path, opt: opt, threads: threads, seed: seed}
}

type fileSnapshotter struct {
	path    string
	opt     hydro.Options
	threads int
	seed    uint64
}

func (f *fileSnapshotter) Save(c core.Configuration, step int) error {
	sc, ok := c.(*Conf)
	if !ok {
		return fmt.Errorf("sd: snapshotter got %T, want *sd.Conf", c)
	}
	return checkpoint.SaveFile(f.path, checkpoint.FromSystem(sc.Sys, step, f.seed))
}

func (f *fileSnapshotter) Restore() (core.Configuration, int, error) {
	st, err := checkpoint.LoadFile(f.path)
	if err != nil {
		return nil, 0, err
	}
	if st.Seed != f.seed {
		return nil, 0, fmt.Errorf("sd: checkpoint seed %d does not match run seed %d", st.Seed, f.seed)
	}
	return NewConf(st.System(), f.opt, f.threads), st.Step, nil
}
