package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// huge is an op's bytes that split it on any pool: threads × 4 parts.
const huge = 1 << 40

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 8} {
		p := NewPool(threads)
		for _, n := range []int{0, 1, 5, 100, 4097} {
			for _, bytes := range []int{0, 3 * floor, huge} {
				hits := make([]int32, n)
				p.ForOp("", n, bytes, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("threads=%d n=%d bytes=%d: index %d visited %d times", threads, n, bytes, i, h)
					}
				}
			}
		}
		p.Close()
	}
}

// TestForPartsFollowBytes: an op splits into one part per floor of the
// bytes it streams, at most four per thread and at most one per
// element; below two floors it runs inline, whatever the pool size.
func TestForPartsFollowBytes(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, c := range []struct{ n, bytes, parts int }{
		{1000, 0, 1},
		{1000, 2*floor - 1, 1},
		{1000, 2 * floor, 2},
		{1000, 3*floor + floor/2, 3},
		{1000, huge, 16},
		{5, huge, 5},
	} {
		var mu sync.Mutex
		var sizes []int
		p.ForOp("", c.n, c.bytes, func(lo, hi int) {
			mu.Lock()
			sizes = append(sizes, hi-lo)
			mu.Unlock()
		})
		total := 0
		for _, s := range sizes {
			total += s
		}
		if len(sizes) != c.parts || total != c.n {
			t.Errorf("n=%d bytes=%d: %d chunks covering %d elements, want %d covering %d", c.n, c.bytes, len(sizes), total, c.parts, c.n)
		}
	}
	if got := NewPool(1).Parts(huge); got != 1 {
		t.Errorf("a serial pool splits an op into %d parts", got)
	}
}

func TestDoRunsEveryTask(t *testing.T) {
	for _, threads := range []int{1, 2, 5} {
		p := NewPool(threads)
		for _, k := range []int{0, 1, 3, 64} {
			hits := make([]int32, k)
			for _, bytes := range []int{0, huge} {
				clear(hits)
				p.DoOp("", k, bytes, func(i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("threads=%d k=%d bytes=%d: task %d ran %d times", threads, k, bytes, i, h)
					}
				}
			}
		}
		p.Close()
	}
}

func TestPanicPropagatesToCaller(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	p.ForOp("", 1000, huge, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
	t.Fatal("For returned instead of panicking")
}

func TestConcurrentDispatchDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				p.ForOp("", 257, huge, func(lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 8*50*257 {
		t.Fatalf("covered %d elements, want %d", got, 8*50*257)
	}
}

func TestSetThreadsSwapsDefaultPool(t *testing.T) {
	saved := Threads()
	t.Cleanup(func() { SetThreads(saved) })
	SetThreads(3)
	if Threads() != 3 {
		t.Fatalf("Threads() = %d after SetThreads(3)", Threads())
	}
	p := Default()
	SetThreads(3) // same count: must be a no-op
	if Default() != p {
		t.Fatal("SetThreads with unchanged count replaced the pool")
	}
	SetThreads(2)
	if Default() == p || Threads() != 2 {
		t.Fatal("SetThreads(2) did not install a fresh pool")
	}
	// The old pool still works after being closed (caller-side runs).
	var n atomic.Int64
	p.ForOp("", 100, huge, func(lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 100 {
		t.Fatalf("closed pool covered %d elements, want 100", n.Load())
	}
}

func TestSerialPoolRunsInline(t *testing.T) {
	p := NewPool(1)
	// With one thread everything must run on the calling goroutine in
	// ascending order — the exact serial path.
	var order []int
	p.ForOp("", 10, huge, func(lo, hi int) { order = append(order, lo) })
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("serial For split the range: %v", order)
	}
	order = order[:0]
	p.DoOp("", 4, huge, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial Do out of order: %v", order)
		}
	}
}

// TestDefaultPoolIsGOMAXPROCS: absent SetThreads, a region splits over
// every processor the runtime was given.
func TestDefaultPoolIsGOMAXPROCS(t *testing.T) {
	if got, want := Threads(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default pool has %d threads, GOMAXPROCS is %d", got, want)
	}
}

// TestDispatchDoesNotAllocate: a split For or Do reuses a job from the
// pool's free list, so a caller that binds its function once allocates
// nothing per region — what keeps the split multiply off the garbage
// collector. The list starts full: one dispatcher's jobs in flight,
// however late its workers let go of them, never outnumber it.
func TestDispatchDoesNotAllocate(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	if len(p.free) != cap(p.free) || cap(p.free) != 2*p.threads {
		t.Fatalf("a new pool holds %d of %d free jobs, want %d", len(p.free), cap(p.free), 2*p.threads)
	}
	var sum atomic.Int64
	span := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	task := func(i int) { sum.Add(int64(i)) }
	for name, f := range map[string]func(){
		"For": func() { p.ForOp("test", 1000, huge, span) },
		"Do":  func() { p.DoOp("", 12, huge, task) },
	} {
		f()
		if n := testing.AllocsPerRun(50, f); n != 0 {
			t.Errorf("%s allocates %v times per dispatch, want 0", name, n)
		}
	}
}

// TestJobsSurviveLateWorkers: a worker can take a job after the
// dispatcher ran every chunk and moved on; the job must not be
// recycled under it. Many small dispatches on a wide pool make that the
// common case; every one must cover its range exactly once.
func TestJobsSurviveLateWorkers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for it := 0; it < 2000; it++ {
		hits := make([]int32, 16)
		p.DoOp("", len(hits), huge, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("dispatch %d: task %d ran %d times", it, i, h)
			}
		}
	}
}
