package hydro

import (
	"math"
	"slices"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/particles"
)

// Options configures resistance-matrix assembly.
type Options struct {
	// Viscosity is the solvent viscosity mu (1 in simulation units).
	Viscosity float64
	// CutoffXi is the dimensionless gap beyond which the lubrication
	// interaction is dropped. The paper varied this cutoff to
	// construct matrices with different nnzb/nb (Table I). Default 1.
	CutoffXi float64
	// MinXi floors the dimensionless gap, regularizing the 1/xi
	// singularity for (numerically) touching spheres. Default 1e-4.
	MinXi float64
	// Phi is the volume occupancy used for the far-field effective
	// viscosity muF.
	Phi float64
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.Viscosity == 0 {
		o.Viscosity = 1
	}
	if o.CutoffXi == 0 {
		o.CutoffXi = 1
	}
	if o.MinXi == 0 {
		o.MinXi = 1e-4
	}
	return o
}

// PairTensor returns the 3x3 translational lubrication resistance
// tensor A for a pair of spheres with radii a1, a2, unit line-of-
// centers direction d, and dimensionless gap xi. The resistance
// functions are shifted to vanish continuously at the cutoff and
// clamped nonnegative so each pair contribution stays PSD.
func PairTensor(a1, a2, xi float64, d blas.Vec3, opt Options) blas.Mat3 {
	opt = opt.WithDefaults()
	if xi < opt.MinXi {
		xi = opt.MinXi
	}
	beta := a2 / a1
	xc := opt.CutoffXi
	xa := XA(xi, beta) - XA(xc, beta)
	ya := YA(xi, beta) - YA(xc, beta)
	if xa < 0 {
		xa = 0
	}
	if ya < 0 {
		ya = 0
	}
	scale := 6 * 3.141592653589793 * opt.Viscosity * (a1 + a2) / 2
	return blas.AxialTensor(scale*xa, scale*ya, d)
}

// pairCoef is what PairTensor recomputes per call from radii and options:
// XA = g1/xi + g2*l + g3*xi*l and YA = y2*l + y3*xi*l (l = log(1/xi)),
// both at the cutoff, and the 6*pi*mu*a_avg scale (nonzero: a filled slot).
type pairCoef struct{ g1, g2, g3, y2, y3, xaCut, yaCut, scale float64 }

func newPairCoef(a1, a2 float64, opt Options) (c pairCoef) {
	beta := a2 / a1
	c.g1, c.g2, c.g3 = xaCoef(beta)
	c.y2, c.y3 = yaCoef(beta)
	c.xaCut, c.yaCut = XA(opt.CutoffXi, beta), YA(opt.CutoffXi, beta)
	c.scale = 6 * 3.141592653589793 * opt.Viscosity * (a1 + a2) / 2
	return c
}

// sym3 is a symmetric 3x3 block by its six distinct entries, the upper
// triangle row by row; symAt maps a blas.Mat3 index to its entry.
type sym3 [6]float64

var symAt = [9]int{0, 1, 2, 1, 3, 4, 2, 4, 5}

// axial writes PairTensor into t bit for bit, by its six distinct
// entries: the same expressions in the same order around one logarithm,
// not four (neither sum can be -0, the one value max and PairTensor's
// comparisons would clamp differently), and AxialTensor's expression
// entry by entry. Its tensor is symmetric bit for bit, because
// d_a*d_b = d_b*d_a.
func (c *pairCoef) axial(t *sym3, xi float64, d *blas.Vec3, minXi float64) {
	xi = max(xi, minXi)
	l := math.Log(1 / xi)
	xa := c.scale * max(0, c.g1/xi+c.g2*l+c.g3*xi*l-c.xaCut)
	ya := c.scale * max(0, c.y2*l+c.y3*xi*l-c.yaCut)
	xx, xy, xz := d[0]*d[0], d[0]*d[1], d[0]*d[2]
	yy, yz, zz := d[1]*d[1], d[1]*d[2], d[2]*d[2]
	*t = sym3{
		xa*xx + ya*(1-xx), xa*xy + ya*(0-xy), xa*xz + ya*(0-xz),
		xa*yy + ya*(1-yy), xa*yz + ya*(0-yz),
		xa*zz + ya*(1-zz),
	}
}

// zero reports whether every entry of t is zero (blas.Mat3.Zero3).
func (t *sym3) zero() bool {
	return t[0] == 0 && t[1] == 0 && t[2] == 0 && t[3] == 0 && t[4] == 0 && t[5] == 0
}

// FarFieldCoefficients returns the per-particle diagonal coefficients
// muF_i = 6*pi*mu*a_i*eta_r(phi): the Stokes drag of each sphere in
// an effective medium of relative viscosity eta_r.
func FarFieldCoefficients(sys *particles.System, opt Options) []float64 {
	opt = opt.WithDefaults()
	eta := EffectiveViscosity(opt.Phi)
	out := make([]float64, sys.N)
	for i, a := range sys.Radius {
		out[i] = 6 * 3.141592653589793 * opt.Viscosity * a * eta
	}
	return out
}

// SearchCutoff returns the center-to-center distance below which a
// pair can interact: surfaces closer than CutoffXi*(a1+a2)/2 for the
// largest spheres in the system.
func SearchCutoff(sys *particles.System, opt Options) float64 {
	opt = opt.WithDefaults()
	amax := sys.MaxRadius()
	return 2 * amax * (1 + opt.CutoffXi/2)
}

// Build assembles the sparse resistance matrix R = muF*I + Rlub for
// the current particle configuration. The result is symmetric
// positive definite: muF*I is positive diagonal and every pair term
// is PSD. A caller that assembles along a trajectory keeps an
// Assembler instead, which this is one use of.
func Build(sys *particles.System, opt Options) *bcrs.Matrix {
	return NewAssembler(sys, opt).Build(sys.Pos)
}

// skinFraction sizes the Verlet skin against SearchCutoff: SD steps
// move particles by a tiny fraction of the interaction range, so 5%
// already lets one candidate search serve many steps.
const skinFraction = 0.05

// Assembler builds the resistance matrices of one trajectory: it is
// bound to a system's radii, box and options, and is handed positions.
// It owns what consecutive builds can share — the Verlet neighbor
// list, the far-field coefficients, the lubrication constants of every
// listed pair, and the tensor and row scratch — so a warmed Build
// computes only what depends on the positions. A returned matrix never
// aliases that scratch and is its holder's; handed back before the next
// Build (Recycle), its arrays are what that Build writes into.
//
// The matrix is a pure function of (positions, radii, options): the
// list hands over its candidates in (I, J) order whatever its history,
// and each diagonal block is summed as the far-field term, then the
// pair tensors in that order, which is ascending neighbor index. List
// reuse, rebuild timing, recycled storage and thread count cannot change
// a bit of it.
//
// An Assembler is not safe for concurrent use; every trajectory (each
// runner, each verifier beside one) needs its own.
type Assembler struct {
	opt    Options
	box    float64
	radius []float64
	far    []float64 // far-field diagonal coefficients
	list   *neighbor.List

	// coef holds the pair constants by candidate slot of the list, as
	// of its coefGen-th rebuild; a slot fills when its pair first lists.
	coef    []pairCoef
	coefGen int

	// The current build's candidates and wrapped positions (the list's),
	// whether each is kept, and the tensor of each kept one.
	cand    [][2]int32
	wrapped []blas.Vec3
	kept    []bool
	tens    []sym3
	// below counts each row's neighbors of smaller index, then is the
	// fill cursor of the row's lower side, as above is of its upper
	// side; diag is the slot of the row's diagonal block.
	below, above, diag []int32

	// The arrays of the matrix built last (lent, while it is out) and the
	// pool callback that fills the tensors, bound once so a build
	// allocates none.
	lent           *bcrs.Matrix
	rowPtr, colIdx []int32
	vals           []float64
	tensorsFn      func(lo, hi int)
}

// NewAssembler returns an assembler for the system's radii and box.
// The radius slice is retained, not copied.
func NewAssembler(sys *particles.System, opt Options) *Assembler {
	opt = opt.WithDefaults()
	return newAssembler(sys, opt, FarFieldCoefficients(sys, opt))
}

func newAssembler(sys *particles.System, opt Options, far []float64) *Assembler {
	as := &Assembler{
		opt: opt, box: sys.Box, radius: sys.Radius, far: far,
		list:  neighbor.NewList(sys.Box, sys.Radius, opt.CutoffXi, skinFraction*SearchCutoff(sys, opt)),
		below: make([]int32, sys.N),
		above: make([]int32, sys.N),
		diag:  make([]int32, sys.N),
	}
	as.tensorsFn = as.tensors
	return as
}

// MinFarField returns the smallest far-field coefficient (see the
// package-level MinFarField).
func (as *Assembler) MinFarField() float64 { return slices.Min(as.far) }

// ListCounts returns how many builds searched for candidate pairs
// afresh and how many reused the cached candidates.
func (as *Assembler) ListCounts() (rebuilds, reuses int) {
	return as.list.Rebuilds, as.list.Reuses
}

// pairGrain is the minimum candidates per parallel chunk: a kept pair
// costs a logarithm and a few dozen flops, so chunks this size
// comfortably amortize a dispatch.
const pairGrain = 256

// Build assembles the matrix at pos, reusing the neighbor candidates
// when pos has drifted less than the list's skin since they were found.
func (as *Assembler) Build(pos []blas.Vec3) *bcrs.Matrix {
	as.cand, as.wrapped = as.list.Candidates(pos)
	if as.coefGen != as.list.Rebuilds {
		as.coef, as.coefGen = sized(as.coef, len(as.cand)), as.list.Rebuilds
		clear(as.coef)
	}
	return assemble(as, pos)
}

// Recycle takes back the matrix built last, which its holder will not
// touch again. Anything else — nil, an earlier or another assembler's
// matrix, a second hand-back — is ignored, as is all on a nil receiver.
func (as *Assembler) Recycle(a *bcrs.Matrix) {
	if as != nil && a == as.lent {
		as.lent = nil
	}
}

// assemble is the package's one assembly routine: the matrix of the
// list's candidates, which come in (I, J) order, at pos, in three
// passes — the candidate pass (parallel, one slot per candidate: the
// gap test and the tensor of a kept pair), the row sizes (serial count
// and prefix sum), and one serial pass over the kept pairs that writes
// both mirrored off-diagonal blocks of each and sums the diagonals.
func assemble(as *Assembler, pos []blas.Vec3) *bcrs.Matrix {
	const bs = bcrs.BlockSize
	nb := len(as.radius)
	as.kept, as.tens = sized(as.kept, len(as.cand)), sized(as.tens, len(as.cand))
	parallel.Default().ForOp("hydro_pair_tensors", len(as.cand), pairGrain, as.tensorsFn)

	if as.lent != nil { // not handed back: its arrays stay its own
		as.rowPtr, as.colIdx, as.vals = nil, nil, nil
	}
	// A row holds its diagonal block and one block per kept pair.
	rowPtr := sized(as.rowPtr, nb+1)
	clear(rowPtr) // recycled colIdx and vals need none: every slot is written
	clear(as.below)
	for k, c := range as.cand {
		if as.kept[k] {
			rowPtr[c[0]+1]++
			rowPtr[c[1]+1]++
			as.below[c[1]]++
		}
	}
	for i := 0; i < nb; i++ {
		rowPtr[i+1] += rowPtr[i] + 1
	}
	nnzb := int(rowPtr[nb])
	colIdx := sized(as.colIdx, nnzb)
	vals := sized(as.vals, nnzb*bs)

	// Row i is [neighbors below i | i | neighbors above i], and each part
	// fills left to right because the candidates are sorted. Its diagonal
	// block starts as muF*I, made NaN for a NaN or infinite coordinate
	// (x-x is 0 for any other): such a particle is in no pair, every
	// cutoff test being false, and the NaN fails the step at the
	// spectrum bracket or in a solve.
	for i := 0; i < nb; i++ {
		d := rowPtr[i] + as.below[i]
		colIdx[d] = int32(i)
		as.below[i], as.above[i], as.diag[i] = rowPtr[i], d+1, d
		blk := (*blas.Mat3)(vals[int(d)*bs:])
		f := as.far[i]
		z := f * 0 // the bits ScaleM gives the identity's zeros
		*blk = blas.Mat3{f, z, z, z, f, z, z, z, f}
		if p := pos[i]; p[0]-p[0] != 0 || p[1]-p[1] != 0 || p[2]-p[2] != 0 {
			blk[0] = math.NaN()
		}
	}
	// Every pair (j, i) with j < i comes before every pair (i, k), so
	// each diagonal sums its tensors in ascending neighbor index.
	for k, c := range as.cand {
		if !as.kept[k] {
			continue
		}
		i, j := c[0], c[1]
		si, sj := as.above[i], as.below[j]
		as.above[i], as.below[j] = si+1, sj+1
		colIdx[si], colIdx[sj] = j, i
		a, neg := &as.tens[k], (*blas.Mat3)(vals[int(si)*bs:])
		di, dj := (*blas.Mat3)(vals[int(as.diag[i])*bs:]), (*blas.Mat3)(vals[int(as.diag[j])*bs:])
		for q, s := range symAt {
			// 0 - v, not -v: a zero entry is stored as +0, as summing
			// into a zeroed block would leave it.
			neg[q] = 0 - a[s]
			di[q] += a[s]
			dj[q] += a[s]
		}
		*(*blas.Mat3)(vals[int(sj)*bs:]) = *neg
	}

	as.rowPtr, as.colIdx, as.vals = rowPtr, colIdx, vals
	as.cand, as.wrapped = nil, nil
	as.lent = bcrs.NewMatrix(nb, nb, rowPtr, colIdx, vals)
	return as.lent
}

// sized returns s at length n, contents unspecified, reallocated if short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// tensors is the candidate pass over [lo, hi): each candidate's
// displacement, distance and gap, once, and for a pair inside the
// cutoff its tensor. A pair outside it, whose centers coincide, or whose
// tensor vanishes (the shifted resistance functions round to zero just
// inside the cutoff) is not kept and stores no block. It runs
// in blocks, the geometry of a block's candidates before any of their
// tensors: a gap test that waits on a square root and a division then
// decides no branch, and the out-of-order core overlaps candidates.
func (as *Assembler) tensors(lo, hi int) {
	var geo [64]struct {
		dir   blas.Vec3
		r, xi float64
	}
	for b := lo; b < hi; b += len(geo) {
		n := min(len(geo), hi-b)
		for k := range n {
			c, g := as.cand[b+k], &geo[k]
			wa, wb := &as.wrapped[c[0]], &as.wrapped[c[1]]
			x := neighbor.Image(wb[0]-wa[0], as.box)
			y := neighbor.Image(wb[1]-wa[1], as.box)
			z := neighbor.Image(wb[2]-wa[2], as.box)
			g.r = math.Sqrt(x*x + y*y + z*z)
			g.xi = neighbor.Gap(g.r, as.radius[c[0]], as.radius[c[1]])
			s := 1 / g.r
			g.dir = blas.Vec3{s * x, s * y, s * z}
		}
		for k := range n {
			t, g := &as.tens[b+k], &geo[k]
			keep := g.xi < as.opt.CutoffXi && g.r > 0
			if keep {
				pc := &as.coef[b+k]
				if pc.scale == 0 {
					c := as.cand[b+k]
					*pc = newPairCoef(as.radius[c[0]], as.radius[c[1]], as.opt)
				}
				pc.axial(t, g.xi, &g.dir, as.opt.MinXi)
			}
			as.kept[b+k] = keep && !t.zero()
		}
	}
}

// MinFarField returns the smallest diagonal far-field coefficient —
// a rigorous lower bound on the spectrum of R, used to bracket the
// eigenvalue interval for the Chebyshev square root.
func MinFarField(sys *particles.System, opt Options) float64 {
	return slices.Min(FarFieldCoefficients(sys, opt))
}
