package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/parallel"
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
	// Shards is the partition count (>= 1).
	Shards int
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

// Fleet routes multiplies across RCB-partitioned shard workers. It
// implements solver.BlockOperator (plus MulVec), so solvers and the
// serve engine treat it as one operator. Multiplies are issued by one
// caller at a time (the serve dispatcher or a solver loop) — the
// fan-out inside each multiply is where the concurrency lives.
type Fleet struct {
	a   *bcrs.Matrix
	pos []blas.Vec3
	n   int
	opt Options

	topo      atomic.Pointer[topology]
	rebuildMu sync.Mutex

	mulSeq     atomic.Int64
	tombstones atomic.Int64
	gen        atomic.Int64
	trace      atomic.Pointer[obs.Trace]
	closed     atomic.Bool
}

// topology is one installed generation of workers.
type topology struct {
	p       int
	part    []int
	workers []*worker
	gen     int
}

// New partitions a across opt.Shards workers and starts their
// goroutines. The matrix must be square; it is retained for crash
// rebuilds.
func New(a *bcrs.Matrix, opt Options) (*Fleet, error) {
	if a.NB() != a.NCB() {
		return nil, fmt.Errorf("shard: matrix must be square")
	}
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: shards must be >= 1, got %d", opt.Shards)
	}
	if opt.Shards > a.NB() {
		return nil, fmt.Errorf("shard: %d shards for %d block rows", opt.Shards, a.NB())
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
	opt.Retry = opt.Retry.WithDefaults()
	f := &Fleet{a: a, pos: opt.Pos, n: a.N(), opt: opt}
	f.install(opt.Shards, nil)
	return f, nil
}

// install builds and swaps in a new topology of p shards. A nil part
// re-runs RCB; a non-nil one (PolicyRestart) reuses the old partition
// verbatim. Old workers' job queues are closed so their goroutines
// exit; install is only called from New and from recover (under
// rebuildMu), never concurrently with an in-flight multiply.
func (f *Fleet) install(p int, part []int) {
	if part == nil {
		part = partition.RCB(f.a, f.pos, p).Part
	}
	ws := buildWorkers(f, f.a, part, p, parallel.ShardBudget(f.opt.Threads, p))
	t := &topology{p: p, part: part, workers: ws, gen: int(f.gen.Add(1))}
	old := f.topo.Swap(t)
	if old != nil {
		for _, w := range old.workers {
			close(w.jobs)
		}
	}
	for _, w := range ws {
		go w.loop()
	}
	liveShards.Set(float64(p))
	tombstonedShards.Set(float64(f.tombstones.Load()))
}

// N returns the global scalar dimension.
func (f *Fleet) N() int { return f.n }

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
	if x.N != f.n || y.N != x.N || y.M != x.M {
		panic("shard: Mul dimension mismatch")
	}
	fleetMuls.Inc()
	tr := f.trace.Load()
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	for attempt := 0; ; attempt++ {
		t := f.topo.Load()
		err := f.mulOnce(t, y, x)
		if err == nil {
			if tr != nil {
				tr.ObserveSpan("shard/mul", time.Since(start))
			}
			return nil
		}
		crashed := crashedShards(err)
		if len(crashed) == 0 || attempt >= f.opt.Shards {
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
	switch f.opt.Policy {
	case PolicyRestart:
		f.install(t.p, t.part)
	default: // PolicyShrink
		p := t.p - len(crashed)
		if p < 1 {
			p = 1 // the last shard standing; the crash rule has fired, so the retry proceeds
		}
		f.install(p, nil)
	}
}

// mulOnce fans one multiply across the topology's workers and waits
// for the barrier. Channels are per-multiply, so a failed attempt
// leaves no stale packets behind.
func (f *Fleet) mulOnce(t *topology, y, x *multivec.MultiVec) error {
	j := &job{
		seq: f.mulSeq.Add(1),
		x:   x, y: y,
		errs: make([]error, t.p),
	}
	if f.opt.Faults == nil {
		j.raw = makeChans[[]float64](t.p, 1)
	} else {
		j.tp = cluster.Transport{Inj: f.opt.Faults, Retry: f.opt.Retry}
		j.pk = makeChans[cluster.Packet](t.p, j.tp.ChanCap())
	}
	j.wg.Add(t.p)
	for _, w := range t.workers {
		w.jobs <- j
	}
	j.wg.Wait()
	return errors.Join(j.errs...)
}

// makeChans builds the per-multiply chans[src][dst] mesh.
func makeChans[T any](p, cap int) [][]chan T {
	chans := make([][]chan T, p)
	for s := range chans {
		chans[s] = make([]chan T, p)
		for d := range chans[s] {
			chans[s][d] = make(chan T, cap)
		}
	}
	return chans
}

// crashedShards extracts the shard ids that crashed from a (possibly
// joined) multiply error. Peer-observed crash errors (a tombstone
// received from shard s) count toward s, so every worker's view of the
// same death converges on one id.
func crashedShards(err error) []int {
	seen := map[int]bool{}
	var walk func(error)
	walk = func(err error) {
		if err == nil {
			return
		}
		var fe *faults.Error
		if errors.As(err, &fe) && fe.Kind == faults.Crash {
			seen[fe.Node] = true
		}
		if j, ok := err.(interface{ Unwrap() []error }); ok {
			for _, e := range j.Unwrap() {
				walk(e)
			}
		}
	}
	walk(err)
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	return out
}

// Topology snapshots the fleet for introspection.
func (f *Fleet) Topology() Topology {
	t := f.topo.Load()
	top := Topology{
		Shards:     t.p,
		Configured: f.opt.Shards,
		Tombstoned: int(f.tombstones.Load()),
		Gen:        t.gen,
		Policy:     string(f.opt.Policy),
		BlockRows:  make([]int, t.p),
		HaloRows:   make([]int, t.p),
	}
	for i, w := range t.workers {
		top.BlockRows[i] = len(w.owned)
		top.HaloRows[i] = len(w.halo)
	}
	return top
}

// Degraded reports whether the fleet is running below its configured
// shard count (a crash shrank it).
func (f *Fleet) Degraded() bool { return f.topo.Load().p < f.opt.Shards }

// Gen returns the live topology's generation, bumped by every
// re-partition (crash recovery installs a survivor layout). Consumers
// caching state derived from the fleet's arithmetic — the serve tier's
// recycled deflation basis — compare generations to invalidate when
// the layout, and hence the degraded operator, changes under them.
func (f *Fleet) Gen() int { return f.topo.Load().gen }

// Close stops the worker goroutines. Call only after the last
// multiply has returned (the serve engine closes its owned fleet after
// the dispatcher drains).
func (f *Fleet) Close() {
	if !f.closed.CompareAndSwap(false, true) {
		return
	}
	for _, w := range f.topo.Load().workers {
		close(w.jobs)
	}
}
