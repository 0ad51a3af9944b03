// Package neighbor finds interacting particle pairs in a periodic box.
//
// The resistance matrix of Stokesian dynamics couples only particle
// pairs closer than a cutoff (lubrication forces are short-range), so
// each time step needs the set of pairs with minimum-image separation
// below the cutoff. Cell lists give this in O(n) time: the box is
// divided into a grid of cells at least one cutoff wide, and only the
// 13 half-neighbors of each cell (plus the cell itself) are searched.
// When the box is too small for a 3x3x3 grid of cutoff-sized cells,
// the search streams the O(n^2) scan instead; an independent copy of
// that scan is exported as the test oracle (PairsBrute).
//
// Two surfaces sit on the search. ForEachPair visits every pair inside
// one global cutoff — what packing relaxation and pair statistics
// want. List is the Verlet list matrix assembly uses along a
// trajectory, and its reach is per pair: spheres i and j interact
// while their dimensionless surface gap (Gap) is below a cutoff, i.e.
// while r < (a_i+a_j)(1+xiCut/2). A pair becomes a candidate when it
// is within that reach plus the skin of the reference configuration
// (this test may err wide), the candidates serve until some particle
// has drifted skin/2, and a pair is reported exactly when Gap < xiCut
// at the queried positions. Candidates are kept sorted, so an answer
// is in (I, J) order and depends on the positions alone — not on when
// the list was last rebuilt, which search rebuilt it, or the thread
// count. A list owns every buffer it needs, so a query that reuses
// the candidates allocates nothing; the returned pairs are valid until
// the next query. Beside each pair the list reports its slot in the
// candidate set (Slots), fixed until the next rebuild, so a caller can
// keep per-pair constants by slot. Wrap and MinImage return for every
// float64; an infinite position comes out NaN and in no pair (the tests
// above are false for NaN), and hydro fails the step by marking its row.
package neighbor

import (
	"math"
	"slices"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// binGrain is the minimum particles (or candidate pairs) per parallel
// chunk in the geometry passes: each element costs a few dozen flops,
// so smaller chunks would be dominated by dispatch overhead.
const binGrain = 2048

// Pair is an interacting particle pair with i < j, the minimum-image
// displacement D = pos[j] - pos[i], and its length R.
type Pair struct {
	I, J int
	D    blas.Vec3
	R    float64
}

// MinImage returns the minimum-image displacement of d in a cubic
// periodic box of edge length box; see Wrap for what bounds its loops.
func MinImage(d blas.Vec3, box float64) blas.Vec3 {
	if box <= 0 {
		return d
	}
	for c := range d {
		for math.Abs(d[c]) > 2*box {
			d[c] -= box * math.Floor(d[c]/box)
		}
		for d[c] > box/2 {
			d[c] -= box
		}
		for d[c] < -box/2 {
			d[c] += box
		}
	}
	return d
}

// Wrap maps p into [0, box)^3. Its add/subtract loops decide every bit
// of a coordinate within two boxes but never end on an infinity (1e297
// turns on 1e300), so one further out first comes back by whole boxes:
// an infinity becomes NaN, which passes every loop. Still inlines.
func Wrap(p blas.Vec3, box float64) blas.Vec3 {
	if box <= 0 {
		return p
	}
	for c := range p {
		for math.Abs(p[c]) > 2*box {
			p[c] -= box * math.Floor(p[c]/box)
		}
		for p[c] < 0 {
			p[c] += box
		}
		for p[c] >= box {
			p[c] -= box
		}
	}
	return p
}

// Pairs returns all pairs with minimum-image distance strictly less
// than cutoff, in a deterministic order. Positions may lie outside
// the primary box; they are wrapped internally.
func Pairs(pos []blas.Vec3, box, cutoff float64) []Pair {
	var out []Pair
	ForEachPair(pos, box, cutoff, func(p Pair) { out = append(out, p) })
	return out
}

// ForEachPair calls fn for every pair with minimum-image distance
// strictly less than cutoff, without materializing the pair list —
// the path used by packing relaxation and pair statistics. Each
// qualifying pair is visited exactly once, with I < J. The visit
// order is deterministic. Geometry comes from a snapshot of pos taken
// on entry, so fn may move particles.
func ForEachPair(pos []blas.Vec3, box, cutoff float64, fn func(Pair)) {
	new(cells).forEachPair(pos, box, cutoff, fn)
}

// cells is the binning scratch of one pair search. The free functions
// use a fresh one per call; a List owns one, so its rebuilds allocate
// nothing once the buffers have grown to the system size.
type cells struct {
	wrapped []blas.Vec3
	cellOf  []int
	counts  []int // cell start offsets into members, then one past the end
	fill    []int
	members []int32
}

// halfSpace lists the 13 neighbor-cell offsets that, together with the
// home cell, cover each pair exactly once. With g >= 3, distinct
// offsets always reach distinct cells mod g, so no pair can be visited
// twice.
var halfSpace = [13][3]int{
	{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
	{1, 1, 0}, {1, -1, 0}, {1, 0, 1}, {1, 0, -1},
	{0, 1, 1}, {0, 1, -1},
	{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1},
}

func (cs *cells) forEachPair(pos []blas.Vec3, box, cutoff float64, fn func(Pair)) {
	if box <= 0 || cutoff <= 0 {
		panic("neighbor: box and cutoff must be positive")
	}
	n := len(pos)
	cs.wrapped = resize(cs.wrapped, n)
	wrapped := cs.wrapped
	g := int(box / cutoff)
	if g < 3 {
		// Cells would alias through the periodic wrap: stream the
		// quadratic scan, which visits pairs in (I, J) order.
		for i, p := range pos {
			wrapped[i] = Wrap(p, box)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := MinImage(wrapped[j].Sub(wrapped[i]), box)
				if r := d.Norm(); r < cutoff {
					fn(Pair{I: i, J: j, D: d, R: r})
				}
			}
		}
		return
	}
	if g > 1024 {
		g = 1024
	}
	cell := box / float64(g)

	cs.cellOf = resize(cs.cellOf, n)
	cs.counts = resize(cs.counts, g*g*g+1)
	cs.fill = resize(cs.fill, g*g*g)
	cs.members = resize(cs.members, n)
	cellOf, counts, fill, members := cs.cellOf, cs.counts, cs.fill, cs.members
	idx := func(ix, iy, iz int) int { return (ix*g+iy)*g + iz }
	// Binning: each particle's wrap and cell index are independent, so
	// the pass parallelizes with disjoint writes; the histogram and
	// prefix sum stay serial, so cell membership order — and therefore
	// the pair visit order — never depends on the thread count.
	parallel.Default().ForOp("neighbor_bin", n, binGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := Wrap(pos[i], box)
			wrapped[i] = w
			ix := clamp(int(w[0]/cell), g)
			iy := clamp(int(w[1]/cell), g)
			iz := clamp(int(w[2]/cell), g)
			cellOf[i] = idx(ix, iy, iz)
		}
	})
	clear(counts)
	for _, c := range cellOf {
		counts[c+1]++
	}
	for c := 0; c < g*g*g; c++ {
		counts[c+1] += counts[c]
	}
	copy(fill, counts)
	for i := 0; i < n; i++ {
		members[fill[cellOf[i]]] = int32(i)
		fill[cellOf[i]]++
	}

	emit := func(i, j int) {
		d := MinImage(wrapped[j].Sub(wrapped[i]), box)
		r2 := d.Dot(d)
		if r2 < cutoff*cutoff {
			if i > j {
				i, j = j, i
				d = d.Scale(-1)
			}
			fn(Pair{I: i, J: j, D: d, R: math.Sqrt(r2)})
		}
	}
	for ix := 0; ix < g; ix++ {
		for iy := 0; iy < g; iy++ {
			for iz := 0; iz < g; iz++ {
				c := idx(ix, iy, iz)
				home := members[counts[c]:counts[c+1]]
				// Within the home cell.
				for a := 0; a < len(home); a++ {
					for b := a + 1; b < len(home); b++ {
						emit(int(home[a]), int(home[b]))
					}
				}
				// Against each half-space neighbor.
				for _, off := range halfSpace {
					jx := (ix + off[0] + g) % g
					jy := (iy + off[1] + g) % g
					jz := (iz + off[2] + g) % g
					other := members[counts[idx(jx, jy, jz)]:counts[idx(jx, jy, jz)+1]]
					for _, a := range home {
						for _, b := range other {
							emit(int(a), int(b))
						}
					}
				}
			}
		}
	}
}

// resize returns s with length n and unspecified contents, reusing its
// storage when that is large enough.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

func clamp(c, g int) int {
	if c < 0 {
		return 0
	}
	if c >= g {
		return g - 1
	}
	return c
}

// PairsBrute is the O(n^2) reference implementation; its pairs come
// out in (I, J) order.
func PairsBrute(pos []blas.Vec3, box, cutoff float64) []Pair {
	var pairs []Pair
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			// Wrap the endpoints first for exact agreement with the
			// cell-list path.
			d := MinImage(Wrap(pos[j], box).Sub(Wrap(pos[i], box)), box)
			if r := d.Norm(); r < cutoff {
				pairs = append(pairs, Pair{I: i, J: j, D: d, R: r})
			}
		}
	}
	return pairs
}
