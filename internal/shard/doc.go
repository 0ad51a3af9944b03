// Package shard is the horizontally-split serve tier: a Fleet
// partitions a square BCRS operator into RCB row strips
// (internal/partition) and implements solver.BlockOperator over them —
// so the MRHS batching engine in internal/serve, and every solver above
// it, runs against a sharded fleet exactly as it runs against one
// matrix.
//
// The distributed multiply itself is not here. The strip plan
// (interior and boundary strips, send and receive schedules) and the
// exchange step (gather, post halo sends, interior product while they
// fly, receive, boundary product, scatter) live once, in
// internal/cluster; a Fleet holds one cluster.Cluster per topology
// generation and calls its TryMul, which runs one goroutine per shard
// for the length of the multiply. Nothing runs between multiplies, so
// a fleet has nothing to close. What the fleet owns is the policy
// around that step:
//
//   - the partition: RCB over particle positions when given, over
//     nnz-balanced row indices otherwise;
//   - crash recovery: a multiply that fails because a shard crashed is
//     retried after an automatic rebuild — PolicyRestart (the same
//     partition rebuilt in place, which preserves bitwise-identical
//     results) or PolicyShrink (re-partition across the survivors; the
//     tombstone persists and the fleet reports itself degraded);
//   - introspection: generation, topology, degraded state;
//   - the per-shard view of the cluster's timings: the
//     shard_*{shard=i} counter family and the shardN/shard_solve and
//     shardN/halo_wait trace spans, fed from the cluster's per-node
//     observer.
//
// Fault injection — drops, corruption, duplicates, delays, crash
// tombstones — is the cluster's checksummed retry transport, armed
// through Options.Faults, so it applies to the serve tier unchanged.
//
// Determinism: at one shard the single strip rebuilds the matrix with
// identical block order, so fleet solves are bitwise-identical to the
// unsharded engine. At higher shard counts the interior/boundary split
// changes the accumulation grouping — results differ from unsharded in
// the last bits but are bitwise-deterministic at a fixed shard count
// and thread budget (and bitwise equal to a cluster.Cluster over the
// same partition), because strip schedules are fixed and the global
// scatter writes disjoint rows.
package shard
