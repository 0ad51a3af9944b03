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

// tensor is PairTensor bit for bit: the same expressions in the same
// order around one logarithm, not four (neither sum can be -0, the one
// value max and PairTensor's comparisons would clamp differently).
func (c *pairCoef) tensor(xi float64, d blas.Vec3, minXi float64) blas.Mat3 {
	xi = max(xi, minXi)
	l := math.Log(1 / xi)
	xa := max(0, c.g1/xi+c.g2*l+c.g3*xi*l-c.xaCut)
	ya := max(0, c.y2*l+c.y3*xi*l-c.yaCut)
	return blas.AxialTensor(c.scale*xa, c.scale*ya, d)
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
// listed pair, and the pair, tensor and row scratch — so a warmed
// Build computes only what depends on the positions. A returned matrix
// never aliases that scratch and is its holder's; handed back before
// the next Build (Recycle), its arrays are what that Build writes into.
//
// The matrix is a pure function of (positions, radii, options): the
// list reports pairs in (I, J) order whatever its history, and each
// diagonal block is summed as the far-field term, then the pair
// tensors in ascending neighbor index. List reuse, rebuild timing,
// recycled storage and thread count cannot change a bit of it.
//
// An Assembler is not safe for concurrent use; every trajectory (each
// ensemble member, each runner) needs its own.
type Assembler struct {
	opt    Options
	radius []float64
	far    []float64 // far-field diagonal coefficients
	list   *neighbor.List

	// coef holds the pair constants by candidate slot of the list, as
	// of its coefGen-th rebuild; a slot fills when its pair first lists.
	coef    []pairCoef
	coefGen int

	pos   []blas.Vec3     // the current build's positions (the caller's)
	pairs []neighbor.Pair // its pairs (the list's buffer)
	tens  []blas.Mat3     // tensor per pair; zero for a dropped pair
	ref   []int32         // pair behind each off-diagonal block
	// below counts each row's neighbors of smaller index, then, with
	// above, is the fill cursor of the row's two sides of the diagonal.
	below, above []int32

	// The arrays of the matrix built last (lent, while it is out) and the
	// pool callbacks that fill them, bound once so a build allocates none.
	lent           *bcrs.Matrix
	rowPtr, colIdx []int32
	vals           []float64
	tensorsFn      func(lo, hi int)
	rowsFn         func(lo, hi int)
}

// NewAssembler returns an assembler for the system's radii and box.
// The radius slice is retained, not copied.
func NewAssembler(sys *particles.System, opt Options) *Assembler {
	opt = opt.WithDefaults()
	return newAssembler(sys, opt, FarFieldCoefficients(sys, opt))
}

func newAssembler(sys *particles.System, opt Options, far []float64) *Assembler {
	as := &Assembler{
		opt: opt, radius: sys.Radius, far: far,
		list:  neighbor.NewList(sys.Box, sys.Radius, opt.CutoffXi, skinFraction*SearchCutoff(sys, opt)),
		below: make([]int32, sys.N),
		above: make([]int32, sys.N),
	}
	as.tensorsFn, as.rowsFn = as.tensors, as.rows
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

// pairGrain and rowGrain are the minimum pairs and block rows per
// parallel chunk: a pair costs two resistance-function evaluations and
// a row a handful of block copies, so chunks this size comfortably
// amortize a dispatch.
const (
	pairGrain = 256
	rowGrain  = 512
)

// Build assembles the matrix at pos, reusing the neighbor candidates
// when pos has drifted less than the list's skin since they were found.
func (as *Assembler) Build(pos []blas.Vec3) *bcrs.Matrix {
	pairs := as.list.Pairs(pos)
	if as.coefGen != as.list.Rebuilds {
		_, n := as.list.Slots()
		as.coef, as.coefGen = sized(as.coef, n), as.list.Rebuilds
		clear(as.coef)
	}
	return assemble(as, pos, pairs)
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
// given pairs, which must come in (I, J) order, in four passes — their
// tensors (parallel, one slot per pair), the row sizes (serial count
// and prefix sum), the column structure (serial; sorted pairs fill
// every row in ascending column order), and the values (parallel, one
// block row per write).
func assemble(as *Assembler, pos []blas.Vec3, pairs []neighbor.Pair) *bcrs.Matrix {
	nb := len(as.radius)
	pool := parallel.Default()
	as.pos, as.pairs = pos, pairs
	as.tens = sized(as.tens, len(pairs))
	pool.ForOp("hydro_pair_tensors", len(pairs), pairGrain, as.tensorsFn)

	if as.lent != nil { // not handed back: its arrays stay its own
		as.rowPtr, as.colIdx, as.vals = nil, nil, nil
	}
	// A row holds its diagonal block and one block per kept pair.
	rowPtr := sized(as.rowPtr, nb+1)
	clear(rowPtr) // recycled colIdx and vals need none: every slot is written
	clear(as.below)
	for k, p := range pairs {
		if !as.tens[k].Zero3() {
			rowPtr[p.I+1]++
			rowPtr[p.J+1]++
			as.below[p.J]++
		}
	}
	for i := 0; i < nb; i++ {
		rowPtr[i+1] += rowPtr[i] + 1
	}
	nnzb := int(rowPtr[nb])
	colIdx := sized(as.colIdx, nnzb)
	vals := sized(as.vals, nnzb*bcrs.BlockSize)
	as.ref = sized(as.ref, nnzb)

	// Row i is [neighbors below i | i | neighbors above i], and each
	// part fills left to right because the pairs are sorted.
	for i := 0; i < nb; i++ {
		d := rowPtr[i] + as.below[i]
		colIdx[d] = int32(i)
		as.below[i], as.above[i] = rowPtr[i], d+1
	}
	for k, p := range pairs {
		if as.tens[k].Zero3() {
			continue
		}
		si, sj := as.above[p.I], as.below[p.J]
		as.above[p.I], as.below[p.J] = si+1, sj+1
		colIdx[si], as.ref[si] = int32(p.J), int32(k)
		colIdx[sj], as.ref[sj] = int32(p.I), int32(k)
	}

	as.rowPtr, as.colIdx, as.vals = rowPtr, colIdx, vals
	pool.ForOp("hydro_rows", nb, rowGrain, as.rowsFn)
	as.pos, as.pairs = nil, nil
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

// tensors evaluates the lubrication tensor of pairs [lo, hi). A pair
// whose tensor vanishes (the shifted resistance functions round to
// zero just inside the cutoff) or whose centers coincide stores no
// block.
func (as *Assembler) tensors(lo, hi int) {
	slots, _ := as.list.Slots()
	for k := lo; k < hi; k++ {
		p := as.pairs[k]
		if p.R <= 0 {
			as.tens[k] = blas.Mat3{}
			continue
		}
		a1, a2 := as.radius[p.I], as.radius[p.J]
		c := &as.coef[slots[k]]
		if c.scale == 0 {
			*c = newPairCoef(a1, a2, as.opt)
		}
		as.tens[k] = c.tensor(neighbor.Gap(p.R, a1, a2), p.D.Scale(1/p.R), as.opt.MinXi)
	}
}

// rows writes the values of block rows [lo, hi): -A for each neighbor
// and, on the diagonal, muF*I plus the same tensors in slot order,
// which is ascending neighbor index. A NaN or infinite coordinate (x-x is
// 0 for any other) is in no pair, every cutoff test being false: its block
// is made NaN, which fails the step at the spectrum bracket or in a solve.
func (as *Assembler) rows(lo, hi int) {
	const bs = bcrs.BlockSize
	for i := lo; i < hi; i++ {
		diag := blas.Ident3().ScaleM(as.far[i])
		if p := as.pos[i]; p[0]-p[0] != 0 || p[1]-p[1] != 0 || p[2]-p[2] != 0 {
			diag[0] = math.NaN()
		}
		at := -1
		for s := int(as.rowPtr[i]); s < int(as.rowPtr[i+1]); s++ {
			if int(as.colIdx[s]) == i {
				at = s
				continue
			}
			a := &as.tens[as.ref[s]]
			for q, v := range a {
				diag[q] += v
				// 0 - v, not -v: a zero entry is stored as +0, as
				// summing into a zeroed block would leave it.
				as.vals[s*bs+q] = 0 - v
			}
		}
		copy(as.vals[at*bs:], diag[:])
	}
}

// MinFarField returns the smallest diagonal far-field coefficient —
// a rigorous lower bound on the spectrum of R, used to bracket the
// eigenvalue interval for the Chebyshev square root.
func MinFarField(sys *particles.System, opt Options) float64 {
	return slices.Min(FarFieldCoefficients(sys, opt))
}
