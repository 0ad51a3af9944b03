// Package serve turns the MRHS solver stack into a batching solve
// server: independent solve requests are held briefly in a bounded
// admission queue and coalesced by a dynamic batcher into one
// multi-right-hand-side solve sized to the specialized GSPMV kernels
// (m in {1, 2, 4, 8, 16, 32}).
//
// The economics are the paper's Eq. 8 applied to serving: a solve
// with m fused right-hand sides costs r(m) << m times a single solve,
// so coalescing q concurrent requests multiplies throughput by
// q/r(q). Krasnopolsky (arXiv:1711.10622) fuses independent ensemble
// simulations this way; here the independent systems are independent
// *user requests* against a shared operator.
//
// A dispatch runs one standard CG recurrence per request sharing only
// the GSPMV (solver.MultiCG); each request's answer is
// bitwise-identical to solving it alone, which makes batching
// invisible to clients.
//
// # Ensembles
//
// Traffic batching only fills kernels when concurrent requests happen
// to overlap; at low load the batcher dispatches singletons and the
// MRHS advantage evaporates. SubmitEnsemble (HTTP: POST /v1/ensemble)
// removes that dependence on luck: a client submits K right-hand
// sides as one atomic admission unit — one queue slot, shed or
// accepted as a whole, always solved inside the same fused dispatch —
// so the kernel width is >= K structurally, even at concurrency 1.
// This is the ensemble fusion of Krasnopolsky's papers surfaced as an
// API: K independent trajectories advanced by one client cost r(K)
// single solves instead of K.
//
// Overload is handled by explicit load shedding: when the admission
// queue is full, Submit fails fast with ErrOverloaded (HTTP 429)
// instead of growing an unbounded backlog. Shutdown is a graceful
// drain: new work is refused, queued work is flushed.
package serve
