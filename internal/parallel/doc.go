// Package parallel is the shared parallel runtime of the MRHS stack:
// a dependency-free, persistent worker pool with a blocked
// parallel-for and a deterministic blocked reduction.
//
// The paper's GSPMV amortizes matrix traffic across m right-hand
// sides, which moves the bottleneck of an SD step onto everything
// around the sparse multiply — the block-CG Gram and update
// operations, the Chebyshev recurrence, matrix assembly, and neighbor
// binning. All of those are driven through this package so one
// threads knob scales the whole step, not just the kernel
// (Krasnopolsky's MRHS-BiCGStab study makes the same point: once the
// matvec is traffic-optimal, the vector ops dominate). That knob is
// the process-wide pool's size (SetThreads); it starts at
// runtime.GOMAXPROCS, and nothing else in the tree holds a thread
// count.
//
// Determinism contract. Results must be bitwise-identical across runs
// with the same thread count, because the fault-tolerance layer
// validates crash recovery by comparing trajectory checksums of a
// replayed run against a clean one. Two rules deliver that:
//
//  1. Chunk boundaries are a pure function of (n, grain, pool
//     threads) — never of load, timing, or which worker runs a chunk.
//  2. Reduce stores one partial per chunk and folds them sequentially
//     in ascending chunk order after the parallel phase.
//
// Operations with disjoint writes (parallel-for over distinct output
// ranges) are bitwise-identical across *any* thread count; reductions
// are bitwise-identical for a *fixed* thread count (the combine order
// changes with the partition, as in any blocked summation).
//
// Scheduling. A Pool with t threads keeps t-1 persistent workers
// parked on a channel; ForOp/DoOp/Reduce enqueue a job, wake up to t-1
// helpers without blocking, and the calling goroutine participates
// until the chunk queue drains. The caller always makes progress on
// its own job, so nested and concurrent dispatch (e.g. simulated
// cluster nodes multiplying their row strips at once) cannot
// deadlock or oversubscribe the pool, and a pool with t = 1 runs
// everything inline with zero overhead — the serial fallback path.
// Finished jobs are recycled, so ForOp and DoOp allocate nothing of their
// own once warm.
package parallel
