package solver

import (
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/blas"
	"repro/internal/model"
	"repro/internal/multivec"
)

// Deflation implements the second technique the paper lists for
// sequences of slowly-varying systems (Section III): "recycle
// components of the Krylov subspace from one solve to the next"
// (after Parks et al.). A basis W spanning earlier solutions is kept;
// before CG starts, the solve is corrected by the Galerkin projection
//
//	x += W (W^T A W)^{-1} W^T (b - A x),
//
// which removes the components of the error lying in span(W) — the
// directions the previous solves already explored. Building the
// projector costs one GSPMV with k vectors (A*W) per matrix, another
// natural consumer of the multiple-vector kernel.
//
// A Deflation is immutable after construction except for its
// correction scratch, so it must not be shared by concurrent
// correctors; concurrent readers of K() are fine.
type Deflation struct {
	cols [][]float64 // orthonormal basis columns (unit 2-norm)
	lu   *blas.LU    // factorization of W^T A W

	r, y, c []float64 // correction scratch (single caller at a time)
}

// K returns the number of deflation vectors retained.
func (d *Deflation) K() int { return len(d.cols) }

// NewDeflation orthonormalizes the given basis vectors (modified
// Gram-Schmidt, dropping near-dependent columns), computes A*W with a
// single GSPMV, and factors the small Galerkin matrix. It returns an
// error if no independent directions survive.
//
// The drop tolerance is relative to the largest input column norm, so
// a uniformly tiny basis (converged velocities of a near-quiescent
// system) survives intact while genuinely dependent directions are
// dropped at any scale.
func NewDeflation(a BlockOperator, basis [][]float64) (*Deflation, error) {
	n := a.N()
	var maxNorm float64
	for _, v := range basis {
		if len(v) != n {
			return nil, errors.New("solver: deflation vector length mismatch")
		}
		if nrm := blas.Nrm2(v); nrm > maxNorm {
			maxNorm = nrm
		}
	}
	drop := 1e-12 * maxNorm
	var cols [][]float64
	for _, v := range basis {
		w := append([]float64(nil), v...)
		for _, u := range cols {
			blas.Axpy(-blas.Dot(u, w), u, w)
		}
		norm := blas.Nrm2(w)
		if norm <= drop {
			deflDropped.Inc()
			continue // dependent direction
		}
		blas.Scal(1/norm, w)
		cols = append(cols, w)
	}
	if len(cols) == 0 {
		return nil, errors.New("solver: no independent deflation vectors")
	}
	w := multivec.FromColumns(cols...)
	aw := multivec.New(n, w.M)
	a.Mul(aw, w)
	g := multivec.Gram(w, aw)
	lu, err := blas.LUFactor(g)
	if err != nil {
		return nil, errors.New("solver: singular Galerkin matrix")
	}
	deflBuilds.Inc()
	k := len(cols)
	return &Deflation{cols: cols, lu: lu,
		r: make([]float64, n), y: make([]float64, k), c: make([]float64, k)}, nil
}

// Correct applies the Galerkin correction to x in place, using one
// matrix-vector product to form the residual. The matrix passed may
// differ slightly from the one the deflation was built with (the
// slowly-varying sequence); the correction remains a sensible
// approximate projection.
func (d *Deflation) Correct(a Operator, x, b []float64) {
	a.MulVec(d.r, x)
	blas.Sub(d.r, b, d.r)
	d.apply(x, d.r)
}

// CorrectZero applies the Galerkin correction to a zero initial
// guess: with x = 0 the residual is b exactly, so no matrix-vector
// product is needed and the whole projector cost stays at basis-build
// time. The arithmetic is bitwise-identical to Correct called with a
// zero x (A*0 is exactly zero), which is what lets batched zero-guess
// solves reproduce the single-solve path bit for bit.
func (d *Deflation) CorrectZero(x, b []float64) {
	d.apply(x, b)
}

// apply accumulates x += W (W^T A W)^{-1} W^T r.
func (d *Deflation) apply(x, r []float64) {
	for j, col := range d.cols {
		d.y[j] = blas.Dot(col, r)
	}
	d.lu.Solve(d.c, d.y)
	for j, col := range d.cols {
		blas.Axpy(d.c[j], col, x)
	}
	deflCorrections.Inc()
}

// RecycledCG solves A*x = b by CG after the deflation correction.
// With d == nil it degenerates to plain CG.
func RecycledCG(a Operator, x, b []float64, d *Deflation, opt Options) Stats {
	var extra int
	if d != nil {
		d.Correct(a, x, b)
		extra = 1 // the residual product inside Correct
	}
	st := CG(a, x, b, opt)
	st.MatMuls += extra
	return st
}

// RecycledMultiCG corrects every column's (zero) initial guess by the
// Galerkin projection and then runs the fused multi-CG. The xs must
// hold zero initial guesses — the serving tier's case — so the
// corrections need no residual multiplies. The CG recurrences
// themselves are untouched: column j is bitwise-identical to a lone
// CG started from its corrected guess, so retirement and compaction
// behave exactly as in MultiCG and the whole solve is per-column
// bitwise-reproducible at a fixed basis and thread count. With
// d == nil it degenerates to MultiCG.
func RecycledMultiCG(a BlockOperator, xs, bs [][]float64, opts []Options, d *Deflation) []Stats {
	return RecycledMultiCGWith(nil, a, xs, bs, opts, d)
}

// RecycledMultiCGWith is RecycledMultiCG against a reusable
// workspace.
func RecycledMultiCGWith(ws *MultiCGWorkspace, a BlockOperator, xs, bs [][]float64, opts []Options, d *Deflation) []Stats {
	if d != nil {
		for j := range xs {
			d.CorrectZero(xs[j], bs[j])
		}
	}
	return MultiCGWith(ws, a, xs, bs, opts)
}

// RecycleConfig parameterizes a Recycler.
type RecycleConfig struct {
	// K is the basis budget: the newest K harvested directions are
	// retained. K <= 0 disables recycling entirely.
	K int
	// MaxAge evicts a harvested direction after it has survived this
	// many projector rebuilds — the staleness bound against a
	// drifting operator when harvests stop arriving. Default 32.
	MaxAge int
	// ProbeEvery sets the cadence of calibration rounds: every
	// ProbeEvery-th round inverts the steady-state decision (skips
	// the correction while recycling is winning, applies it while
	// auto-disabled) so both sides of the economics stay measured.
	// Default 16.
	ProbeEvery int
	// Width is the solve width m the economics prices iterations at
	// (per-column iteration cost ~ T(m)/m). Default 1.
	Width int
	// Model, if non-nil, prices the projector rebuild (one K-wide
	// GSPMV) against the measured iterations saved and auto-disables
	// recycling when it loses (model.GSPMV.RecyclePays). Nil leaves
	// recycling always on.
	Model *model.GSPMV
}

func (c RecycleConfig) withDefaults() RecycleConfig {
	if c.MaxAge <= 0 {
		c.MaxAge = 32
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 16
	}
	if c.Width <= 0 {
		c.Width = 1
	}
	return c
}

// recycleVec is one harvested direction with its rebuild age.
type recycleVec struct {
	v   []float64
	age int
}

// Recycler maintains a bounded recycled-subspace basis across a
// sequence of related solves — SD time steps, serve batches — and
// decides, round by round, whether applying the Galerkin correction
// pays. All mutating methods are single-caller (a stepper loop or the
// serve dispatcher); the Stats snapshot is safe from any goroutine.
//
// The lifecycle per round (one SD step or one serve batch):
//
//	rc.BeginRound(op, fresh)        // rebuild projector if needed
//	corrected := rc.CorrectZero(x, b) // or Correct / CorrectZeroColumns
//	... solve ...
//	rc.Observe(iters, corrected)
//	rc.Harvest(x)                   // converged directions
//
// Every decision (probe cadence, payoff verdict) is a deterministic
// function of the call sequence, so a run that replays the same
// solves — a fault-recovery replay restored via Snapshot/Restore, or
// a checkpoint resume starting from the same empty basis — reproduces
// the same corrections and therefore the same trajectory bitwise.
type Recycler struct {
	cfg RecycleConfig

	vecs  []recycleVec
	d     *Deflation
	dirty bool // harvests since the last rebuild

	rounds       int64
	roundCorrect bool
	payoff       bool
	coldIters    float64 // EWMA of uncorrected solve iterations (-1: unset)
	warmIters    float64 // EWMA of corrected solve iterations (-1: unset)
	corrSince    int     // corrections since the last rebuild
	corrPerBuild float64 // EWMA of corrections amortizing one rebuild

	// Observable snapshots, read cross-goroutine by /v1/info.
	basisLen      atomic.Int64
	enabledA      atomic.Bool
	builds        atomic.Int64
	corrections   atomic.Int64
	skips         atomic.Int64
	invalidations atomic.Int64
	disables      atomic.Int64
	savedBits     atomic.Uint64
}

// NewRecycler builds a recycler; cfg.K <= 0 returns nil, which every
// method treats as recycling-off.
func NewRecycler(cfg RecycleConfig) *Recycler {
	if cfg.K <= 0 {
		return nil
	}
	rc := &Recycler{cfg: cfg.withDefaults(), payoff: true, coldIters: -1, warmIters: -1}
	rc.enabledA.Store(true)
	return rc
}

// Enabled reports whether the recycler exists and has a basis budget.
func (rc *Recycler) Enabled() bool { return rc != nil && rc.cfg.K > 0 }

// BeginRound opens one round of related solves against operator a:
// it refreshes the payoff verdict from the EWMAs, decides whether
// this round corrects (steady state XOR probe), and rebuilds the
// projector when the basis changed — or, with fresh set, when the
// operator drifted since the last round (re-orthogonalization against
// the drifting matrix; SD passes fresh=true every step, the serve
// tier's fixed operator passes false).
func (rc *Recycler) BeginRound(a BlockOperator, fresh bool) {
	if rc == nil {
		return
	}
	rc.rounds++
	rc.updatePayoff()
	probe := rc.rounds%int64(rc.cfg.ProbeEvery) == 0
	rc.roundCorrect = rc.payoff != probe
	if !rc.roundCorrect {
		return
	}
	if rc.d == nil || rc.dirty || fresh {
		rc.rebuild(a)
	}
}

// rebuild ages and evicts the harvested directions, then re-derives
// the projector against the current operator (the one K-wide GSPMV
// the economics charges).
func (rc *Recycler) rebuild(a BlockOperator) {
	live := rc.vecs[:0]
	for _, rv := range rc.vecs {
		rv.age++
		if rv.age <= rc.cfg.MaxAge {
			live = append(live, rv)
		}
	}
	rc.vecs = live
	rc.dirty = false
	if rc.corrSince > 0 {
		const alpha = 0.3
		if rc.corrPerBuild == 0 {
			rc.corrPerBuild = float64(rc.corrSince)
		} else {
			rc.corrPerBuild = alpha*float64(rc.corrSince) + (1-alpha)*rc.corrPerBuild
		}
		rc.corrSince = 0
	}
	if len(rc.vecs) == 0 {
		rc.d = nil
		rc.basisLen.Store(0)
		return
	}
	basis := make([][]float64, len(rc.vecs))
	for i, rv := range rc.vecs {
		basis[i] = rv.v
	}
	d, err := NewDeflation(a, basis)
	if err != nil {
		rc.d = nil
		rc.basisLen.Store(0)
		return
	}
	rc.d = d
	rc.builds.Add(1)
	rc.basisLen.Store(int64(d.K()))
	deflBasis.Set(float64(d.K()))
}

// updatePayoff re-evaluates the model's verdict from the measured
// EWMAs. Without a model — or before both sides have been measured —
// recycling stays optimistically on.
func (rc *Recycler) updatePayoff() {
	was := rc.payoff
	if rc.cfg.Model == nil || rc.coldIters < 0 || rc.warmIters < 0 {
		rc.payoff = true
	} else {
		k := rc.cfg.K
		if n := int(rc.basisLen.Load()); n > 0 {
			k = n
		}
		spb := rc.corrPerBuild
		rc.payoff = rc.cfg.Model.RecyclePays(k, rc.cfg.Width, spb, rc.coldIters-rc.warmIters)
	}
	if was && !rc.payoff {
		rc.disables.Add(1)
		deflDisables.Inc()
	}
	rc.enabledA.Store(rc.payoff)
}

// RoundDeflation returns the projector to apply this round, or nil
// when the round does not correct (probe, auto-disabled, no basis).
func (rc *Recycler) RoundDeflation() *Deflation {
	if rc == nil || !rc.roundCorrect {
		return nil
	}
	return rc.d
}

// CorrectZero corrects a zero initial guess if this round corrects,
// reporting whether it did.
func (rc *Recycler) CorrectZero(x, b []float64) bool {
	d := rc.RoundDeflation()
	if d == nil {
		rc.noteSkip(1)
		return false
	}
	d.CorrectZero(x, b)
	rc.noteCorrections(1)
	return true
}

// Correct corrects a warm initial guess (one residual multiply) if
// this round corrects, reporting whether it did.
func (rc *Recycler) Correct(a Operator, x, b []float64) bool {
	d := rc.RoundDeflation()
	if d == nil {
		rc.noteSkip(1)
		return false
	}
	d.Correct(a, x, b)
	rc.noteCorrections(1)
	return true
}

// CorrectZeroColumns corrects a batch of zero initial guesses (the
// fused dispatch path), reporting whether the corrections applied.
func (rc *Recycler) CorrectZeroColumns(xs, bs [][]float64) bool {
	d := rc.RoundDeflation()
	if d == nil {
		rc.noteSkip(len(xs))
		return false
	}
	for j := range xs {
		d.CorrectZero(xs[j], bs[j])
	}
	rc.noteCorrections(len(xs))
	return true
}

func (rc *Recycler) noteCorrections(n int) {
	rc.corrections.Add(int64(n))
	rc.corrSince += n
}

func (rc *Recycler) noteSkip(n int) {
	if rc != nil {
		rc.skips.Add(int64(n))
		deflSkips.Add(int64(n))
	}
}

// Observe feeds one solve's iteration count into the cold/warm EWMAs
// the payoff verdict compares.
func (rc *Recycler) Observe(iters int, corrected bool) {
	if rc == nil {
		return
	}
	const alpha = 0.3
	v := float64(iters)
	if corrected {
		if rc.warmIters < 0 {
			rc.warmIters = v
		} else {
			rc.warmIters = alpha*v + (1-alpha)*rc.warmIters
		}
	} else {
		if rc.coldIters < 0 {
			rc.coldIters = v
		} else {
			rc.coldIters = alpha*v + (1-alpha)*rc.coldIters
		}
	}
	if rc.coldIters >= 0 && rc.warmIters >= 0 {
		saved := rc.coldIters - rc.warmIters
		rc.savedBits.Store(math.Float64bits(saved))
		deflSaved.Set(saved)
	}
}

// Harvest retains a converged solution direction; the newest K are
// kept. The vector is copied.
//
// While a model's verdict is "recycling loses", harvesting pauses and
// the basis freezes: probe rounds then measure the frozen projector
// without paying a rebuild (harvest churn would otherwise make every
// probe rebuild, taxing exactly the workloads that disabled recycling).
// Re-enabling resumes harvesting, and the frozen directions age out
// through the normal MaxAge eviction on the next rebuilds.
func (rc *Recycler) Harvest(v []float64) {
	if rc == nil {
		return
	}
	if rc.cfg.Model != nil && !rc.payoff {
		return
	}
	cp := append([]float64(nil), v...)
	rc.vecs = append(rc.vecs, recycleVec{v: cp})
	if len(rc.vecs) > rc.cfg.K {
		over := len(rc.vecs) - rc.cfg.K
		rc.vecs = append(rc.vecs[:0], rc.vecs[over:]...)
	}
	rc.dirty = true
}

// Invalidate drops the basis and projector: the operator's identity
// changed (a new matrix behind the serve engine, a shard fleet
// re-partition), so the harvested directions no longer approximate
// anything about the current system.
func (rc *Recycler) Invalidate() {
	if rc == nil {
		return
	}
	rc.vecs = rc.vecs[:0]
	rc.d = nil
	rc.dirty = false
	rc.invalidations.Add(1)
	deflInvalidations.Inc()
	rc.basisLen.Store(0)
}

// RecycleSnapshot is the decision-relevant recycler state at a
// recovery boundary. Restoring it makes a fault-recovery replay
// apply exactly the corrections the interrupted attempt would have,
// keeping replayed trajectories bitwise-identical to fault-free runs.
// The monotonic observability counters are deliberately not restored
// (replayed work really was paid for).
type RecycleSnapshot struct {
	vecs         []recycleVec
	d            *Deflation
	dirty        bool
	rounds       int64
	roundCorrect bool
	payoff       bool
	coldIters    float64
	warmIters    float64
	corrSince    int
	corrPerBuild float64
}

// Snapshot captures the decision state. The harvested vectors are
// shared by reference — they are immutable once harvested.
func (rc *Recycler) Snapshot() RecycleSnapshot {
	if rc == nil {
		return RecycleSnapshot{}
	}
	return RecycleSnapshot{
		vecs:         append([]recycleVec(nil), rc.vecs...),
		d:            rc.d,
		dirty:        rc.dirty,
		rounds:       rc.rounds,
		roundCorrect: rc.roundCorrect,
		payoff:       rc.payoff,
		coldIters:    rc.coldIters,
		warmIters:    rc.warmIters,
		corrSince:    rc.corrSince,
		corrPerBuild: rc.corrPerBuild,
	}
}

// Restore rolls the decision state back to a snapshot.
func (rc *Recycler) Restore(s RecycleSnapshot) {
	if rc == nil {
		return
	}
	rc.vecs = append(rc.vecs[:0], s.vecs...)
	rc.d = s.d
	rc.dirty = s.dirty
	rc.rounds = s.rounds
	rc.roundCorrect = s.roundCorrect
	rc.payoff = s.payoff
	rc.coldIters = s.coldIters
	rc.warmIters = s.warmIters
	rc.corrSince = s.corrSince
	rc.corrPerBuild = s.corrPerBuild
	if rc.d != nil {
		rc.basisLen.Store(int64(rc.d.K()))
	} else {
		rc.basisLen.Store(0)
	}
	rc.enabledA.Store(rc.payoff)
}

// RecycleStats is a cross-goroutine-safe snapshot of a recycler's
// observable state (the /v1/info recycle block).
type RecycleStats struct {
	K             int     `json:"recycle_k"`       // configured basis budget
	BasisSize     int     `json:"basis_size"`      // orthonormal vectors currently in the projector
	Enabled       bool    `json:"enabled"`         // the model's current payoff verdict
	Builds        int64   `json:"builds"`          // projector rebuilds
	Corrections   int64   `json:"corrections"`     // solves corrected (hits)
	Skips         int64   `json:"skips"`           // correction opportunities passed (misses)
	Invalidations int64   `json:"invalidations"`   // operator-identity resets
	Disables      int64   `json:"disables"`        // times the model turned recycling off
	HitRate       float64 `json:"hit_rate"`        // Corrections / (Corrections + Skips)
	ItersSavedEst float64 `json:"iters_saved_est"` // cold EWMA - warm EWMA
}

// Stats snapshots the observable state; safe from any goroutine and
// nil-safe (a zero snapshot means recycling off).
func (rc *Recycler) Stats() RecycleStats {
	if rc == nil {
		return RecycleStats{}
	}
	s := RecycleStats{
		K:             rc.cfg.K,
		BasisSize:     int(rc.basisLen.Load()),
		Enabled:       rc.enabledA.Load(),
		Builds:        rc.builds.Load(),
		Corrections:   rc.corrections.Load(),
		Skips:         rc.skips.Load(),
		Invalidations: rc.invalidations.Load(),
		Disables:      rc.disables.Load(),
		ItersSavedEst: math.Float64frombits(rc.savedBits.Load()),
	}
	if tot := s.Corrections + s.Skips; tot > 0 {
		s.HitRate = float64(s.Corrections) / float64(tot)
	}
	return s
}
