// Package cluster implements distributed-memory GSPMV over a
// simulated cluster, reproducing the multi-node experiments of
// Section IV (Figures 3, 4 and Table III), with a fault-tolerant
// transport for chaos testing the full MRHS stack.
//
// # Layers
//
// The package has three layers. The functional layer actually
// executes a partitioned multiply: each node is a goroutine holding a
// row strip of the matrix, nodes exchange halo vector rows over
// channels, and each overlaps its interior computation with
// communication exactly as the paper's MPI implementation overlaps
// the local multiply with the gather of remote elements. Results are
// checked against the serial kernel, so the distributed algorithm is
// real, not a stub. This is the repository's only copy of the strip
// plan (New) and of the exchange step (TryMul), through which SD
// stepping multiplies.
//
// The timing layer is a calibrated cost model standing in for the
// paper's 64-node InfiniBand cluster, which is not available here.
// Per node, compute time comes from the Section IV-B single-node
// model on the node's local shape, and communication time is
// latency*messages + volume/bandwidth with the paper's published
// interconnect parameters (1.5 us one-way latency, 3380 MiB/s
// unidirectional bandwidth). A node's time is max(compute, comm),
// matching the nonblocking-MPI design of Section IV-A2; the cluster
// time is the maximum over nodes. The figures this
// reproduces are ratios (relative time r(m,p), communication
// fractions), which depend only on these modeled ratios, not on
// absolute host speed.
//
// The fault-tolerance layer (SetFaults, Backoff, TryMul) hardens the
// functional layer against an injected fault plan from the faults
// subpackage: every halo message becomes a checksummed packet, senders retransmit dropped or corrupted
// messages after a deterministic exponential backoff, receivers
// validate checksums, discard duplicates, and bound every blocking
// receive with a deadline. Without an armed injector the same step
// ships raw payloads: the two transports differ only at the send and
// the receive.
//
// # Invariants and failure semantics
//
//   - Completed multiplies are exact: a TryMul that returns nil
//     produced bitwise the same result as the fault-free distributed
//     multiply (and matches the serial kernel to rounding — the
//     per-node interior+boundary sum order differs), regardless of
//     how many retries, duplicates, or rejected corruptions occurred
//     along the way. Faults perturb delivery, never accepted data
//     (checksums guarantee it).
//   - Failures are all-or-nothing per multiply: on any node crash,
//     lost message, or expired deadline, TryMul returns a
//     *faults.Error (a join of every affected node's error) and the
//     output multivector must be treated as undefined. There are no
//     partial results.
//   - Mul — the solver-facing surface, which cannot return an error —
//     panics with the *faults.Error instead; internal/core recovers
//     that panic at the step boundary and replays from the last
//     checkpoint. A failed halo exchange is therefore always
//     reported, never silently absorbed.
//   - Crashed nodes send tombstones so their peers fail fast rather
//     than waiting out the receive deadline; the deadline is the
//     backstop when even the tombstone is impossible.
//   - All retry/jitter schedules are deterministic in the Backoff
//     seed, and injector verdicts in the plan seed, so a seeded chaos
//     run is exactly reproducible.
//
// Detected faults are counted in obs.Default (cluster_halo_retries,
// _timeouts, _corrupt_rejected, _dup_discarded, _node_crashes,
// _halo_lost; all _total), mirroring the injector's
// faults_injected_total ledger.
package cluster
