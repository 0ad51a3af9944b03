package shard

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// Fleet-level observability: multiply traffic, crash handling, and the
// current topology. Per-shard counters (one family per shard id, see
// newShardObs) live alongside these so a fleet's load split and halo
// stall profile are readable straight off /metrics. The wire itself —
// messages, payload bytes, retries, crashes — is counted once, by the
// cluster the fleet drives (cluster_*).
var (
	fleetMuls     = obs.Default.Counter("shard_fleet_muls_total")
	fleetRetries  = obs.Default.Counter("shard_mul_retries_total")
	fleetCrashes  = obs.Default.Counter("shard_crashes_total")
	fleetRebuilds = obs.Default.Counter("shard_rebuilds_total")

	liveShards       = obs.Default.Gauge("shard_live")
	tombstonedShards = obs.Default.Gauge("shard_tombstoned")
)

// shardObs is one shard's counter family and trace span names, fed by
// the cluster's per-node observer.
type shardObs struct {
	muls                *obs.Counter
	haloSeconds         *obs.FloatCounter
	solveSeconds        *obs.FloatCounter
	spanSolve, spanHalo string
}

func newShardObs(id int) shardObs {
	s := strconv.Itoa(id)
	return shardObs{
		muls:         obs.Default.Counter(obs.Label("shard_muls_total", "shard", s)),
		haloSeconds:  obs.Default.FloatCounter(obs.Label("shard_halo_seconds_total", "shard", s)),
		solveSeconds: obs.Default.FloatCounter(obs.Label("shard_solve_seconds_total", "shard", s)),
		spanSolve:    "shard" + s + "/shard_solve",
		spanHalo:     "shard" + s + "/halo_wait",
	}
}

// observe records one completed strip multiply; tr may be nil. A
// shard without a halo (haloWait == 0) reports no halo stall.
func (o *shardObs) observe(tr *obs.Trace, solve, haloWait time.Duration) {
	o.muls.Inc()
	o.solveSeconds.Add(solve.Seconds())
	if haloWait > 0 {
		o.haloSeconds.Add(haloWait.Seconds())
	}
	if tr == nil {
		return
	}
	tr.ObserveSpan(o.spanSolve, solve)
	if haloWait > 0 {
		tr.ObserveSpan(o.spanHalo, haloWait)
	}
}
