package parallel

import (
	"sync"

	"repro/internal/obs"
)

// Pool observability: dispatch volume, the serial-fallback share, how
// many chunks the workers ran (the rest ran on the dispatching
// goroutine), how long workers sit idle (polling or parked), and per-op
// parallel wall seconds. A step that fails to scale shows up here as either a high
// serial share (regions too small to split), a low worker share
// (regions over before a parked worker wakes) or high idle time (load
// imbalance or not enough exposed work).
var (
	obsJobs         = obs.Default.Counter("parallel_jobs_total")
	obsSerial       = obs.Default.Counter("parallel_serial_jobs_total")
	obsChunks       = obs.Default.Counter("parallel_chunks_total")
	obsWorkerChunks = obs.Default.Counter("parallel_worker_chunks_total")
	obsIdleSeconds  = obs.Default.FloatCounter("parallel_worker_idle_seconds_total")
	obsThreads      = obs.Default.Gauge("parallel_pool_threads")
)

// opSecondsCache memoizes the labeled FloatCounter handles so the hot
// path pays one sync.Map load instead of a registry lookup.
var opSecondsCache sync.Map // op string -> *obs.FloatCounter

func opSeconds(op string) *obs.FloatCounter {
	if c, ok := opSecondsCache.Load(op); ok {
		return c.(*obs.FloatCounter)
	}
	c := obs.Default.FloatCounter(obs.Label("parallel_op_seconds_total", "op", op))
	opSecondsCache.Store(op, c)
	return c
}
