package neighbor

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/blas"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// List observability: the rebuild/reuse split determines how well the
// Verlet amortization is working, which the paper folds into its
// "Construct" phase. Counted across all lists in the process.
var (
	obsRebuilds = obs.Default.Counter("neighbor_list_rebuilds_total")
	obsReuses   = obs.Default.Counter("neighbor_list_reuses_total")
)

// Gap returns the dimensionless surface gap xi = 2h/(a1+a2) of two
// spheres with radii a1, a2 whose centers are r apart (h the surface
// separation). hydro evaluates it once per candidate, for both the
// cutoff test and the lubrication tensor, and the tests' brute-force
// sets use it too, so a pair at the cutoff falls on the same side of it
// everywhere.
func Gap(r, a1, a2 float64) float64 {
	return 2 * (r - a1 - a2) / (a1 + a2)
}

// List is a Verlet neighbor list over spheres of different radii: it
// keeps the candidate pairs that can have Gap < xiCut, i.e. lie closer
// than their own reach (a_i+a_j)(1+xiCut/2), found with each reach
// enlarged by the skin. The candidates stay valid as long as no particle
// has moved more than skin/2 since they were found. While valid, a
// query hands them back with the positions wrapped, and the caller
// tests each against the current positions instead of re-binning the
// whole system — the amortization the paper leans on when it folds
// partitioning into "neighbor list construction ... amortize[d] over
// several time steps" (Section IV-A2). For Stokesian dynamics steps,
// whose displacements are a tiny fraction of the interaction range, one
// search serves many steps.
//
// The reach is per pair, not the reach of the two largest spheres: in
// a polydisperse system (E. coli radii: largest 115, mean 37) a single
// global cutoff lists some twenty times more candidates than interact.
//
// A List owns its buffers and is not safe for concurrent use; every
// trajectory needs its own.
type List struct {
	box, xiCut, skin float64
	radius           []float64 // shared with the caller, never written
	maxReach         float64   // reach of the two largest spheres

	// wrapped is the last query's positions wrapped into the box, ref
	// the wraps of the configuration the candidates were found at.
	wrapped, ref []blas.Vec3
	// candidates are the pairs within reach+skin of ref, in (I, J)
	// order; indices only — geometry is the caller's, per query.
	candidates [][2]int32
	grid       cells

	// pos is the configuration being queried, for the pool callback
	// below; it is bound once so that a query allocates nothing. moved
	// is the callback's verdict: some particle has drifted.
	pos    []blas.Vec3
	wrapFn func(lo, hi int)
	moved  atomic.Bool

	// Rebuilds and Reuses count list constructions and avoided ones,
	// for tests and instrumentation.
	Rebuilds, Reuses int
}

// NewList creates a list for a box and the spheres' radii; pairs
// interact while Gap < xiCut. The radius slice is retained, not copied.
func NewList(box float64, radius []float64, xiCut, skin float64) *List {
	if box <= 0 || xiCut < 0 || skin <= 0 {
		panic("neighbor: box and skin must be positive and the gap cutoff nonnegative")
	}
	l := &List{box: box, xiCut: xiCut, skin: skin, radius: radius}
	var amax float64
	for _, a := range radius {
		amax = max(amax, a)
	}
	l.maxReach = l.reach(amax, amax)
	l.wrapFn = l.wrap
	return l
}

// reach is the center distance below which spheres of radii a1 and a2
// interact.
func (l *List) reach(a1, a2 float64) float64 {
	return (a1 + a2) * (1 + l.xiCut/2)
}

// wrap wraps l.pos[lo:hi] into l.wrapped and sets l.moved when any of
// them has drifted skin/2 or more from ref (two particles approaching
// each other close at most 2 * skin/2 = skin, the search margin). Chunks
// only ever set it, so the verdict, their OR, is identical for any
// thread count.
func (l *List) wrap(lo, hi int) {
	limit := l.skin / 2
	check, moved := len(l.ref) == len(l.pos), false
	for i := lo; i < hi; i++ {
		w := Wrap(l.pos[i], l.box)
		l.wrapped[i] = w
		if check {
			r := &l.ref[i]
			x, y, z := Image(w[0]-r[0], l.box), Image(w[1]-r[1], l.box), Image(w[2]-r[2], l.box)
			moved = moved || x*x+y*y+z*z >= limit*limit
		}
	}
	if moved {
		l.moved.Store(true)
	}
}

// rebuild refreshes the candidate set from l.wrapped: one search at the
// largest reach, kept per pair by that pair's own reach.
func (l *List) rebuild() {
	l.ref = append(l.ref[:0], l.wrapped...)
	l.candidates = l.candidates[:0]
	// The candidate test, unlike the caller's gap test, may err on the
	// wide side: the sliver covers the rounding of the drift test.
	margin := l.skin * (1 + 1e-9)
	l.grid.forEachPair(l.wrapped, l.box, l.maxReach+margin, func(p Pair) {
		if p.R < l.reach(l.radius[p.I], l.radius[p.J])+margin {
			l.candidates = append(l.candidates, [2]int32{int32(p.I), int32(p.J)})
		}
	})
	// The cell search visits pairs cell by cell; sorting here is what
	// makes the candidates (I, J)-ordered whatever found them.
	slices.SortFunc(l.candidates, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	l.Rebuilds++
	obsRebuilds.Inc()
}

// Candidates readies the list for pos and returns its candidates, in
// (I, J) order, and pos wrapped into the box, each position wrapped
// once. The pairs with Gap < xiCut at pos are exactly the candidates
// (I, J) whose R, the length of the displacement D with components
// Image(wrapped[J][c]-wrapped[I][c], box), has Gap(R, a_I, a_J) < xiCut
// (D and R are then PairsBrute's); that answer depends on pos alone,
// not on the list's history or the thread count. The candidates are
// searched afresh when some particle has drifted skin/2 since they were
// found and reused otherwise, and a candidate keeps its index (its slot)
// while Rebuilds does not change: a caller can cache pair constants by
// slot. Both slices are the list's own and are overwritten by the next
// call.
func (l *List) Candidates(pos []blas.Vec3) (candidates [][2]int32, wrapped []blas.Vec3) {
	if len(pos) != len(l.radius) {
		panic("neighbor: position and radius counts differ")
	}
	l.pos, l.wrapped = pos, resize(l.wrapped, len(pos))
	l.moved.Store(false)
	// A particle's wrap and drift check cost about 5 ns: 450 bytes at
	// the pool's 90 bytes a ns.
	parallel.Default().ForOp("", len(pos), 450*len(pos), l.wrapFn)
	l.pos = nil
	if l.moved.Load() || len(l.ref) != len(pos) {
		l.rebuild()
	} else {
		l.Reuses++
		obsReuses.Inc()
	}
	return l.candidates, l.wrapped
}
