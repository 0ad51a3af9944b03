package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Policy selects what a fleet does when a shard crashes mid-multiply.
type Policy string

const (
	// PolicyShrink re-partitions the operator across the surviving
	// shards: the tombstone persists, the fleet reports itself
	// degraded, and subsequent results come from a p-1 topology
	// (deterministic, but not bitwise-identical to the p-shard run).
	// This is the serving default — capacity shrinks, the fleet lives.
	PolicyShrink Policy = "shrink"
	// PolicyRestart rebuilds the same partition in place, as if the
	// crashed shard rejoined after a supervisor restart. Because the
	// topology is unchanged, the retried multiply — and the whole
	// trajectory — stays bitwise-identical to an uncrashed run.
	PolicyRestart Policy = "restart"
)

// Options parameterizes a Fleet.
type Options struct {
	// Pos optionally embeds block rows in space for true 3D RCB (the
	// SD resistance matrix path). Nil selects the index-coordinate
	// fallback: nnz-balanced contiguous row strips.
	Pos []blas.Vec3
	// Threads is the host-wide kernel-thread budget, split evenly
	// across shards (parallel.ShardBudget) so concurrent strip
	// multiplies never oversubscribe the worker pool. Default 1.
	Threads int
	// Faults, if non-nil, routes every halo message through the
	// checksummed retry transport with this injector; nil keeps the
	// lean healthy path.
	Faults *faults.Injector
	// Retry is the transport retry policy when Faults is set; zero
	// values take the cluster.Backoff defaults.
	Retry cluster.Backoff
	// Policy selects the crash response. Default PolicyShrink.
	Policy Policy
}

// Topology is a point-in-time description of the fleet for
// introspection (/v1/info, /healthz, benches).
type Topology struct {
	// Shards is the live shard count; Configured what New was asked
	// for. Shards < Configured means the fleet is degraded.
	Shards     int `json:"shards"`
	Configured int `json:"configured"`
	// Tombstoned is the cumulative count of crashed shards (it keeps
	// counting under PolicyRestart even though the restarted shard
	// rejoins).
	Tombstoned int `json:"tombstoned"`
	// Gen counts topology installs: 1 is the initial build, each
	// crash recovery increments it.
	Gen    int    `json:"generation"`
	Policy string `json:"policy"`
	// BlockRows and HaloRows are the per-shard owned and halo block
	// row counts — the compute/communication split of each strip.
	BlockRows []int `json:"block_rows"`
	HaloRows  []int `json:"halo_rows"`
}

// Fleet is the recovery policy over a distributed multiply: it picks
// the RCB partition, holds one cluster.Cluster per topology generation
// (the cluster owns the strips and the halo exchange), and answers a
// shard crash by rebuilding and retrying. It implements
// solver.BlockOperator (plus MulVec), so solvers and the serve engine
// treat it as one operator. Multiplies are issued by one caller at a
// time (the serve dispatcher or a solver loop) — the fan-out inside
// each multiply is where the concurrency lives, and it ends with the
// multiply: a fleet holds no goroutines between calls.
type Fleet struct {
	a      *bcrs.Matrix
	shards int // configured count
	opt    Options

	topo      atomic.Pointer[topology]
	rebuildMu sync.Mutex

	tombstones atomic.Int64
	gen        atomic.Int64
	trace      atomic.Pointer[obs.Trace]
}

// topology is one installed generation: a partition and the cluster
// built over it.
type topology struct {
	part []int
	c    *cluster.Cluster
	gen  int
}

// New partitions a across shards RCB strips. The matrix must be
// square; it is retained for crash rebuilds.
func New(a *bcrs.Matrix, shards int, opt Options) (*Fleet, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shards must be >= 1, got %d", shards)
	}
	if shards > a.NB() {
		return nil, fmt.Errorf("shard: %d shards for %d block rows", shards, a.NB())
	}
	if opt.Pos != nil && len(opt.Pos) != a.NB() {
		return nil, fmt.Errorf("shard: %d positions for %d block rows", len(opt.Pos), a.NB())
	}
	if opt.Policy == "" {
		opt.Policy = PolicyShrink
	}
	if opt.Threads < 1 {
		opt.Threads = 1
	}
	f := &Fleet{a: a, shards: shards, opt: opt}
	if err := f.install(shards, nil); err != nil {
		return nil, err
	}
	return f, nil
}

// install builds and swaps in a new topology of p shards. A nil part
// re-runs RCB; a non-nil one (PolicyRestart) reuses the old partition
// verbatim. install is only called from New and from recover (under
// rebuildMu), never concurrently with an in-flight multiply.
func (f *Fleet) install(p int, part []int) error {
	if part == nil {
		part = partition.RCB(f.a, f.opt.Pos, p).Part
	}
	c, err := cluster.New(f.a, part, p)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	c.SetThreads(f.opt.Threads)
	if f.opt.Faults != nil {
		c.SetFaults(f.opt.Faults, f.opt.Retry)
	}
	so := make([]shardObs, p)
	for id := range so {
		so[id] = newShardObs(id)
	}
	c.SetObserver(func(id int, solve, haloWait time.Duration) {
		so[id].observe(f.trace.Load(), solve, haloWait)
	})
	f.topo.Store(&topology{part: part, c: c, gen: int(f.gen.Add(1))})
	liveShards.Set(float64(p))
	tombstonedShards.Set(float64(f.tombstones.Load()))
	return nil
}

// N returns the global scalar dimension.
func (f *Fleet) N() int { return f.a.N() }

// MulVec runs the sharded multiply on a single vector.
func (f *Fleet) MulVec(y, x []float64) {
	f.Mul(multivec.FromVector(y), multivec.FromVector(x))
}

// AttachTrace routes every fleet multiply's per-shard phase timings
// into tr as shard<i>/shard_solve and shard<i>/halo_wait spans, plus a
// shard/mul span for the whole fan-out — the router→shard handoff a
// request trace crosses. A nil tr detaches. Safe to flip concurrently
// with multiplies.
func (f *Fleet) AttachTrace(tr *obs.Trace) { f.trace.Store(tr) }

// Mul is the solver-facing multiply: crashes are absorbed by the
// fleet's rebuild policy, and only an unrecoverable transport failure
// (retry budget exhausted with no crash to pin it on) panics with the
// *faults.Error, mirroring cluster.Mul. Callers that want the error
// use TryMul.
func (f *Fleet) Mul(y, x *multivec.MultiVec) {
	if err := f.TryMul(y, x); err != nil {
		panic(err)
	}
}

// TryMul runs one fleet multiply. On a shard crash it rebuilds per the
// policy and retries the same multiply — the caller sees only the
// completed (possibly degraded) result. Non-crash transport failures
// (lost messages, deadline timeouts) are returned as *faults.Error.
func (f *Fleet) TryMul(y, x *multivec.MultiVec) error {
	fleetMuls.Inc()
	tr := f.trace.Load()
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	for attempt := 0; ; attempt++ {
		t := f.topo.Load()
		err := t.c.TryMul(y, x)
		if err == nil {
			if tr != nil {
				tr.ObserveSpan("shard/mul", time.Since(start))
			}
			return nil
		}
		crashed := crashedShards(err)
		if len(crashed) == 0 || attempt >= f.shards {
			return err
		}
		fleetRetries.Inc()
		f.recover(t, crashed)
	}
}

// recover responds to a crashed multiply: tombstone the dead shards,
// then rebuild — the same partition under PolicyRestart, a smaller
// RCB over the survivors under PolicyShrink. The topology pointer
// guards against double rebuilds if recover races itself.
func (f *Fleet) recover(t *topology, crashed []int) {
	f.rebuildMu.Lock()
	defer f.rebuildMu.Unlock()
	if f.topo.Load() != t {
		return // another caller already rebuilt past this generation
	}
	f.tombstones.Add(int64(len(crashed)))
	fleetCrashes.Add(int64(len(crashed)))
	fleetRebuilds.Inc()
	if tr := f.trace.Load(); tr != nil {
		tr.Event("shard_crash", map[string]any{
			"crashed": crashed, "policy": string(f.opt.Policy), "gen": t.gen,
		})
	}
	var err error
	switch f.opt.Policy {
	case PolicyRestart:
		err = f.install(t.c.P(), t.part)
	default: // PolicyShrink
		// The last shard standing stays: its crash rule has fired, so
		// the retry proceeds.
		err = f.install(max(t.c.P()-len(crashed), 1), nil)
	}
	if err != nil {
		panic(err) // unreachable: New accepted this matrix and p only shrank
	}
}

// crashedShards extracts the shard ids that crashed from a multiply
// error — the cluster's join of one *faults.Error per failed node —
// in first-seen order. Peer-observed crash errors (a tombstone
// received from shard s) count toward s, so every shard's view of the
// same death converges on one id.
func crashedShards(err error) []int {
	errs := []error{err}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		errs = j.Unwrap()
	}
	var out []int
	for _, e := range errs {
		var fe *faults.Error
		if errors.As(e, &fe) && fe.Kind == faults.Crash && !slices.Contains(out, fe.Node) {
			out = append(out, fe.Node)
		}
	}
	return out
}

// Topology snapshots the fleet for introspection.
func (f *Fleet) Topology() Topology {
	t := f.topo.Load()
	p := t.c.P()
	top := Topology{
		Shards:     p,
		Configured: f.shards,
		Tombstoned: int(f.tombstones.Load()),
		Gen:        t.gen,
		Policy:     string(f.opt.Policy),
		BlockRows:  make([]int, p),
		HaloRows:   make([]int, p),
	}
	for i := range top.BlockRows {
		top.BlockRows[i] = t.c.NodeShape(i).NB
		top.HaloRows[i] = t.c.HaloRows(i)
	}
	return top
}

// Shards returns the live shard count.
func (f *Fleet) Shards() int { return f.topo.Load().c.P() }

// Degraded reports whether the fleet is running below its configured
// shard count (a crash shrank it).
func (f *Fleet) Degraded() bool { return f.Shards() < f.shards }
