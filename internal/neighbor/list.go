package neighbor

import (
	"cmp"
	"math"
	"slices"

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
// separation). It is the one expression both the list's emission test
// and the lubrication tensors evaluate, so a pair at the cutoff falls
// on the same side of it everywhere.
func Gap(r, a1, a2 float64) float64 {
	return 2 * (r - a1 - a2) / (a1 + a2)
}

// List is a Verlet neighbor list over spheres of different radii: it
// answers "which pairs have Gap < xiCut", i.e. which lie closer than
// their own reach (a_i+a_j)(1+xiCut/2), from a cached set of candidate
// pairs found with each reach enlarged by the skin. The cache is valid
// as long as no particle has moved more than skin/2 since it was built.
// While valid, a query filters the candidates against the current
// positions instead of re-binning the whole system — the amortization
// the paper leans on when it folds partitioning into "neighbor list
// construction ... amortize[d] over several time steps" (Section
// IV-A2). For Stokesian dynamics steps, whose displacements are a tiny
// fraction of the interaction range, one build serves many steps.
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

	refPos []blas.Vec3
	// candidates are the pairs within reach+skin of the reference
	// configuration, in (I, J) order; indices only — geometry is
	// recomputed per query.
	candidates [][2]int32
	grid       cells
	pairs      []Pair  // the last query's answer
	slots      []int32 // the candidate behind each of those pairs

	// pos is the configuration being queried, for the pool callbacks
	// below; they are bound once so that a query allocates nothing.
	pos       []blas.Vec3
	driftedFn func(lo, hi int) bool
	geometry  func(lo, hi int)

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
	l.driftedFn, l.geometry = l.drifted, l.fillGeometry
	return l
}

// reach is the center distance below which spheres of radii a1 and a2
// interact.
func (l *List) reach(a1, a2 float64) float64 {
	return (a1 + a2) * (1 + l.xiCut/2)
}

// valid reports whether the cached candidates still cover every
// interacting pair of l.pos: true when the maximum single-particle
// drift from the reference is below skin/2 (two particles approaching
// each other close at most 2 * skin/2 = skin, the search margin).
func (l *List) valid() bool {
	if len(l.refPos) != len(l.pos) {
		return false
	}
	// Blocked OR-reduction: each chunk reports whether any of its
	// particles drifted past the limit. The combine is order-
	// insensitive for booleans, so the verdict is identical for any
	// thread count.
	return !parallel.Reduce(parallel.Default(), len(l.pos), binGrain, l.driftedFn, orBool)
}

func orBool(a, b bool) bool { return a || b }

func (l *List) drifted(lo, hi int) bool {
	limit := l.skin / 2
	for i := lo; i < hi; i++ {
		d := MinImage(Wrap(l.pos[i], l.box).Sub(Wrap(l.refPos[i], l.box)), l.box)
		if d.Dot(d) >= limit*limit {
			return true
		}
	}
	return false
}

// rebuild refreshes the candidate set from l.pos: one search at the
// largest reach, kept per pair by that pair's own reach.
func (l *List) rebuild() {
	l.refPos = append(l.refPos[:0], l.pos...)
	l.candidates = l.candidates[:0]
	// The candidate test, unlike the emission test, may err on the
	// wide side: the sliver covers the rounding of the drift test.
	margin := l.skin * (1 + 1e-9)
	l.grid.forEachPair(l.pos, l.box, l.maxReach+margin, func(p Pair) {
		if p.R < l.reach(l.radius[p.I], l.radius[p.J])+margin {
			l.candidates = append(l.candidates, [2]int32{int32(p.I), int32(p.J)})
		}
	})
	// The cell search visits pairs cell by cell; sorting here is what
	// makes every query's answer (I, J)-ordered whatever found it.
	slices.SortFunc(l.candidates, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	l.Rebuilds++
	obsRebuilds.Inc()
}

// Pairs returns every pair of pos with Gap < xiCut, in (I, J) order,
// reusing the cached candidates when the configuration has not drifted
// past the skin. The answer depends on pos alone, not on the list's
// history or the thread count. The returned slice is the list's own
// and is overwritten by the next call, as is that of Slots.
func (l *List) Pairs(pos []blas.Vec3) []Pair {
	if len(pos) != len(l.radius) {
		panic("neighbor: position and radius counts differ")
	}
	l.pos = pos
	if !l.valid() {
		l.rebuild()
	} else {
		l.Reuses++
		obsReuses.Inc()
	}
	// Geometry in parallel (one slot per candidate), then a serial
	// in-place compaction down to the pairs inside their reach.
	l.pairs = resize(l.pairs, len(l.candidates))
	parallel.Default().ForOp("neighbor_filter", len(l.candidates), binGrain, l.geometry)
	l.pos = nil
	kept, slots := l.pairs[:0], resize(l.slots, len(l.candidates))[:0]
	for k, p := range l.pairs {
		if Gap(p.R, l.radius[p.I], l.radius[p.J]) < l.xiCut {
			kept = append(kept, p)
			slots = append(slots, int32(k))
		}
	}
	l.pairs, l.slots = kept, slots
	return kept
}

// Slots returns, for each pair of the last Pairs answer, its index
// among the candidates, and their number. A pair keeps its slot while
// Rebuilds does not change: a caller can cache pair constants by slot.
func (l *List) Slots() ([]int32, int) { return l.slots, len(l.candidates) }

func (l *List) fillGeometry(lo, hi int) {
	for k := lo; k < hi; k++ {
		c := l.candidates[k]
		d := MinImage(Wrap(l.pos[c[1]], l.box).Sub(Wrap(l.pos[c[0]], l.box)), l.box)
		l.pairs[k] = Pair{I: int(c[0]), J: int(c[1]), D: d, R: math.Sqrt(d.Dot(d))}
	}
}
