// Package parallel is the shared parallel runtime of the MRHS stack:
// a dependency-free, persistent worker pool with a blocked
// parallel-for and a task dispatch.
//
// The paper's GSPMV amortizes matrix traffic across m right-hand
// sides, which moves the bottleneck of an SD step onto everything
// around the sparse multiply — the block-CG Gram and update
// operations, the Chebyshev recurrence, matrix assembly, and neighbor
// binning. All of those are driven through this package so one
// threads knob and one split rule scale the whole step, not just the
// kernel (Krasnopolsky's MRHS-BiCGStab study makes the same point:
// once the matvec is traffic-optimal, the vector ops dominate). That knob is
// the process-wide pool's size (SetThreads); it starts at
// runtime.GOMAXPROCS, and nothing else in the tree holds a thread
// count.
//
// One split rule. Every pooled op states the bytes it streams, and
// Parts turns them into a part count: min(threads × 4, bytes / floor),
// floor being one constant priced from the pool's dispatch-and-wake
// cost and a core's stream rate (DESIGN §9, "Threads"). A compute-bound
// pass — assembly's pair tensors, the neighbour list's wrap and binning,
// the block updates' multiply-adds — states the bytes its measured time
// would stream. No other package holds a grain, bar the fold of bcrs's
// half-storage multiply (below). For an op whose parts
// write disjoint outputs — the general multiply's nnz-balanced ranges
// (DoOp), every ForOp — the rule picks k; for a reduction, whose chunks
// are fixed by n alone, it picks only whether those chunks run on the
// pool or inline (DoOp's bytes), never how many there are.
//
// Determinism contract. Results must be bitwise-identical at every
// thread count: the fault-tolerance layer validates crash recovery by
// comparing trajectory checksums of a replayed run against a clean
// one, and a trajectory must not move with -threads. One rule delivers
// that: a reduction's chunks are a function of n alone. ForOp's chunk
// boundaries are a pure function of (n, bytes, pool threads) — never
// of load, timing, or which worker runs a chunk — so ForOp serves only
// work whose chunks write disjoint outputs, or combine by an
// order-free operation such as a boolean OR, and give the same bits
// however the range is cut. A reduction fixes k from n, runs chunk c
// over ChunkBounds(n, k, c) through DoOp, and adds the chunk sums in
// chunk order (multivec's lane engine is the one that does). The one
// exception is bcrs's half-storage multiply: its ordered fold of
// per-thread partials follows the pool's thread count, so its bits hold
// at a fixed thread count only, and only the benchmark's gspmv_*
// workloads run it.
//
// Scheduling. A Pool with t threads keeps t-1 persistent workers
// parked on a channel; ForOp/DoOp enqueue a job, wake up to t-1
// helpers without blocking, and the calling goroutine participates
// until the chunk queue drains. The caller always makes progress on
// its own job, so nested and concurrent dispatch (e.g. simulated
// cluster nodes multiplying their row strips at once) cannot
// deadlock or oversubscribe the pool, and a pool with t = 1, or an op
// too small to split, runs inline with zero overhead — the serial
// path.
// Finished jobs are recycled, so ForOp and DoOp allocate nothing of their
// own once warm.
package parallel
