package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// overPartition is how many parts each thread gets at most: load-balance
// slack for skewed work, and the slack that lets the dispatching
// goroutine start on a part while a worker joins, so a worker that joins
// late takes only what is left.
const overPartition = 4

// floor is the fewest bytes a part streams: an op splits into k parts
// only when each carries at least this much (Parts). A split into two
// saves half the op's stream time and costs about 8 µs on the reference
// host (5–18 measured) — little of it the dispatch, 0.2 µs to a polling
// worker, most of it the second core fetching operands another core's
// cache holds — while one core streams 80–100 GB/s from its caches; the
// two break even near 0.7 MB a part, and the floor sits above that
// (DESIGN §9, "Threads"). A compute-bound pass states the bytes its time
// would stream at 90 bytes a nanosecond.
const floor = 1 << 20

// Pool is a fixed-size team of persistent workers. The zero value is
// not usable; create pools with NewPool. Pools are immutable: the
// thread count is fixed at construction, which is what keeps part
// counts deterministic.
type Pool struct {
	threads int
	workers int // threads-1 persistent goroutines
	jobs    chan *job
	stop    chan struct{}
	once    sync.Once

	// free holds finished jobs no goroutine still refers to, so a
	// dispatch allocates nothing. Its 2 × threads slots hold every job
	// one dispatcher cycles through: its own, one in each worker's hand
	// and one in each slot of jobs. NewPool fills it: a list filled on
	// demand meets a new high of jobs in flight long after warm-up, when
	// workers happen to let go late, and allocates then.
	free chan *job

	// wake is how long, in nanoseconds, the last parked worker took to
	// take up a job after its dispatch. A worker that finishes a job
	// polls for the next one that long before it parks: a job that
	// comes sooner, the next multiply of a solve, finds it awake, and
	// a worker never waits longer than the wake it would save costs.
	wake atomic.Int64
}

// job is one ForOp/DoOp dispatch: a fixed number of chunks claimed by
// atomic increment. Which goroutine runs a chunk is scheduling noise;
// the chunk boundaries are not.
type job struct {
	do   func(chunk int)  // DoOp: chunk c is task c
	span func(lo, hi int) // ForOp: chunk c is ChunkBounds(n, k, c)
	n    int
	k    int32
	sent time.Time // when the dispatcher offered it to the workers
	next atomic.Int32
	wg   sync.WaitGroup
	// refs counts the goroutines holding the job — its dispatcher and
	// each worker it was sent to. A worker may take a job after its
	// chunks are all done; the last holder to let go recycles it.
	refs atomic.Int32

	panicVal any
	panicked atomic.Bool
}

// NewPool creates a pool that runs parallel regions on up to threads
// goroutines (the caller plus threads-1 persistent workers). threads
// < 1 is treated as 1, which yields a pool that runs everything
// inline.
func NewPool(threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	p := &Pool{threads: threads, workers: threads - 1, free: make(chan *job, 2*threads)}
	for range cap(p.free) {
		p.free <- new(job)
	}
	if p.workers > 0 {
		p.jobs = make(chan *job, p.workers)
		p.stop = make(chan struct{})
		for i := 0; i < p.workers; i++ {
			go p.worker()
		}
	}
	return p
}

// Threads returns the pool's thread count (caller + workers).
func (p *Pool) Threads() int { return p.threads }

// Close releases the pool's workers. In-flight jobs finish; the
// caller side of any concurrent dispatch completes its own chunks, so
// closing a pool that is still in use is safe, only slower. Closing
// twice is a no-op.
func (p *Pool) Close() {
	p.once.Do(func() {
		if p.stop != nil {
			close(p.stop)
		}
	})
}

func (p *Pool) worker() {
	for {
		t0 := time.Now()
		j := p.poll(t0)
		if j == nil {
			select {
			case j = <-p.jobs:
				p.wake.Store(int64(time.Since(j.sent)))
			case <-p.stop:
				return
			}
		}
		obsIdleSeconds.Add(time.Since(t0).Seconds())
		obsWorkerChunks.Add(int64(j.help()))
		p.release(j)
	}
}

// poll looks for a job without parking until the last wake's time has
// passed since t0, and returns nil if none came. It yields between
// looks, so a spinning worker holds no processor another goroutine
// wants.
func (p *Pool) poll(t0 time.Time) *job {
	for spin := time.Duration(p.wake.Load()); ; runtime.Gosched() {
		select {
		case j := <-p.jobs:
			return j
		default:
			if time.Since(t0) >= spin {
				return nil
			}
		}
	}
}

// help claims chunks until the job's queue is exhausted and returns
// how many it ran.
func (j *job) help() (ran int) {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= int(j.k) {
			return ran
		}
		j.runChunk(c)
		ran++
	}
}

// runChunk executes one chunk, capturing the first panic so it can be
// re-thrown on the dispatching goroutine — fault panics (the
// *faults.Error of the simulated transport) must unwind through the
// caller to the recovery machinery, not kill a worker.
func (j *job) runChunk(c int) {
	defer j.wg.Done()
	defer func() {
		if r := recover(); r != nil && j.panicked.CompareAndSwap(false, true) {
			j.panicVal = r
		}
	}()
	if j.span != nil {
		j.span(ChunkBounds(j.n, int(j.k), c))
		return
	}
	j.do(c)
}

// dispatch fans k chunks out over the pool and the calling goroutine,
// returning when all k have completed, and adds its wall time to
// parallel_op_seconds_total{op="..."} when op is set: a per-op view of
// where the pool's time goes. k must be >= 2. Exactly one of do and
// span is set; span splits [0, n).
func (p *Pool) dispatch(op string, k int, do func(chunk int), span func(lo, hi int), n int) {
	j := p.newJob()
	j.do, j.span, j.n, j.k = do, span, n, int32(k)
	j.sent = time.Now()
	j.next.Store(0)
	j.refs.Store(1)
	j.wg.Add(k)

	// Wake up to min(workers, k-1) parked workers. Sends never block:
	// if every worker is busy the caller simply does more of the work
	// itself, which is both deadlock-free and load-adaptive.
	helpers := min(p.workers, k-1)
wake:
	for i := 0; i < helpers; i++ {
		j.refs.Add(1)
		select {
		case p.jobs <- j:
		default:
			j.refs.Add(-1)
			break wake
		}
	}

	j.help()
	j.wg.Wait()
	if op != "" {
		opSeconds(op).Add(time.Since(j.sent).Seconds())
	}
	obsJobs.Inc()
	obsChunks.Add(int64(k))
	panicked, val := j.panicked.Load(), j.panicVal
	p.release(j)
	if panicked {
		panic(val)
	}
}

// newJob returns a recycled job, or a fresh one when concurrent
// dispatchers hold them all.
func (p *Pool) newJob() *job {
	select {
	case j := <-p.free:
		return j
	default:
		return new(job)
	}
}

// release drops one hold on j and recycles it after the last.
func (p *Pool) release(j *job) {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.do, j.span, j.panicVal = nil, nil, nil
	j.panicked.Store(false)
	select {
	case p.free <- j:
	default: // concurrent dispatchers: let the collector have it
	}
}

// Parts returns how many parts an op that streams bytes splits into on
// p: min(threads × overPartition, bytes / floor), and at least 1, which
// means it runs inline — as everything does on a serial pool, which has
// no thread to balance. It is the pool's one split rule. A part count is
// a function of (bytes, threads) alone, never of load or timing, so a
// split op's ranges are as deterministic as its inputs.
func (p *Pool) Parts(bytes int) int {
	if p.workers == 0 {
		return 1
	}
	return max(1, min(p.threads*overPartition, bytes/floor))
}

// ChunkBounds returns the half-open range of chunk c of k over [0, n):
// the partition ForOp splits by, and the one a DoOp caller uses when
// its chunks must be a function of n and k alone.
func ChunkBounds(n, k, c int) (lo, hi int) {
	return n * c / k, n * (c + 1) / k
}

// ForOp runs fn over [0, n) cut into min(n, Parts(bytes)) blocked
// ranges, bytes being what the whole op streams. fn must be safe to call
// concurrently on disjoint ranges. When the op does not split, fn(0, n)
// runs inline — the exact serial path. op labels a split's wall time.
func (p *Pool) ForOp(op string, n, bytes int, fn func(lo, hi int)) {
	if k := min(n, p.Parts(bytes)); k > 1 {
		p.dispatch(op, k, nil, fn, n)
	} else if n > 0 {
		obsSerial.Inc()
		fn(0, n)
	}
}

// DoOp runs fn(i) for every i in [0, k): pre-partitioned work, such as
// the nnz-balanced block-row ranges of a BCRS matrix or a reduction's
// row chunks. The k tasks go over the pool when the op's bytes would
// split it (Parts(bytes) > 1) and run inline in order otherwise; which
// one never changes what the tasks compute. Tasks must write disjoint
// outputs. Like ForOp, a split DoOp allocates nothing of its own; op
// labels its time as ForOp's does.
func (p *Pool) DoOp(op string, k, bytes int, fn func(i int)) {
	if k > 1 && p.Parts(bytes) > 1 {
		p.dispatch(op, k, fn, nil, 0)
		return
	}
	if k > 0 {
		obsSerial.Inc()
	}
	for i := range k {
		fn(i)
	}
}

// defaultPool holds the process-wide pool the instrumented packages
// dispatch through. It starts with one thread per GOMAXPROCS, so an op
// that pays for a split uses every core the runtime was given unless
// SetThreads says otherwise.
var defaultPool atomic.Pointer[Pool]

func init() {
	t := runtime.GOMAXPROCS(0)
	defaultPool.Store(NewPool(t))
	obsThreads.Set(float64(t))
}

// Default returns the current process-wide pool. Callers that issue
// several related dispatches should capture the pool once so an
// intervening SetThreads cannot change the part count mid-operation.
func Default() *Pool {
	return defaultPool.Load()
}

// SetThreads resizes the process-wide pool. This is the single
// threads knob of the runtime: sd.NewConf and the command-line flags
// funnel here, and every op that pays for a split splits over the pool.
// Setting the current count is a no-op; otherwise the old pool is
// closed (in-flight work completes) and a fresh pool takes its place.
func SetThreads(t int) {
	if t < 1 {
		t = 1
	}
	if defaultPool.Load().threads == t {
		return
	}
	old := defaultPool.Swap(NewPool(t))
	obsThreads.Set(float64(t))
	old.Close()
}

// Threads returns the process-wide pool's thread count.
func Threads() int { return Default().threads }
