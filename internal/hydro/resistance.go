package hydro

import (
	"math"
	"slices"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/cpufeat"
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
// triangle row by row: xx, xy, xz, yy, yz, zz.
type sym3 [6]float64

// negZero is the tensor of a candidate that is not kept: added into a
// diagonal entry it leaves the entry's bits as they were, -0 included.
var negZero = func() (t sym3) {
	for q := range t {
		t[q] = math.Copysign(0, -1)
	}
	return t
}()

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

// zero reports whether every entry of t is zero.
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
// list, the far-field coefficients, the radii and lubrication constants
// of every listed pair, the list's candidates indexed by row, and the
// tensor and row scratch — so a warmed Build computes only what depends
// on the positions. A returned matrix never aliases that scratch and is
// its holder's; handed back before the next Build (Recycle), its arrays
// are what that Build writes into.
//
// The matrix is a pure function of (positions, radii, options): the
// list hands over its candidates in (I, J) order whatever its history,
// and each diagonal block is summed as the far-field term, then the
// pair tensors in ascending neighbor index. List reuse, rebuild timing,
// recycled storage, thread count and the path of either pass (AVX2 or
// Go) cannot change a bit of it.
//
// An Assembler is not safe for concurrent use; every trajectory (each
// runner, each verifier beside one) needs its own.
type Assembler struct {
	opt    Options
	box    float64
	radius []float64
	far    []float64 // far-field diagonal coefficients
	list   *neighbor.List
	prm    candParams

	// As of the list's coefGen-th rebuild: slots holds each candidate
	// slot's radii and, once its pair is first kept, its pairCoef, four
	// slots to a group (slotGroup). Row i's visits are
	// [rowStart[i], rowStart[i+1]): the slot and the column of each of
	// its blocks in column order — its pairs (j, i), the diagonal (the
	// slot past the last candidate's), its pairs (i, k).
	slots                         []float64
	coefGen                       int
	rowStart, visitSlot, visitCol []int32

	// The current build's candidates and wrapped positions (the list's),
	// each one's tensor (negZero unless kept) and whether it is kept (1)
	// or not (0), and past them the diagonal's visit: negZero, kept.
	cand    [][2]int32
	wrapped []blas.Vec3
	kept    []uint8
	tens    []sym3

	// The arrays of the matrix built last (lent, while it is out; colIdx
	// and vals one block longer than it) and the pool callback that fills
	// the tensors, bound once so a build allocates none.
	lent           *bcrs.Matrix
	rowPtr, colIdx []int32
	vals           []float64
	tensorsFn      func(lo, hi int)
}

// A slot group holds four candidate slots' radii and pair constants,
// field by field, each field four lanes wide: the layout in which the
// AVX2 candidate pass loads four candidates' inputs. A zero scale
// marks constants not computed yet.
const (
	slotA1 = 4 * iota
	slotA2
	slotG1
	slotG2
	slotG3
	slotY2
	slotY3
	slotXaCut
	slotYaCut
	slotScale
	slotGroup
)

// candParams is what the AVX2 candidate pass reads of the assembler:
// the box, box/2, -box/2 (neighbor.Image's), CutoffXi and MinXi, four
// lanes each.
type candParams struct{ box, half, nhalf, cut, minXi [4]float64 }

// candBlock is the most candidates one call of the AVX2 pass takes.
// candScratch is its workspace: it comes in with their raw
// wrapped-coordinate differences by axis in the first three rows, and
// the kernel keeps its geometry in all five.
const candBlock = 64

type candScratch [5][candBlock]float64

// NewAssembler returns an assembler for the system's radii and box.
// The radius slice is retained, not copied.
func NewAssembler(sys *particles.System, opt Options) *Assembler {
	opt = opt.WithDefaults()
	return newAssembler(sys, opt, FarFieldCoefficients(sys, opt))
}

func newAssembler(sys *particles.System, opt Options, far []float64) *Assembler {
	as := &Assembler{
		opt: opt, box: sys.Box, radius: sys.Radius, far: far,
		list: neighbor.NewList(sys.Box, sys.Radius, opt.CutoffXi, skinFraction*SearchCutoff(sys, opt)),
	}
	for l := range 4 {
		as.prm.box[l], as.prm.half[l], as.prm.nhalf[l] = sys.Box, sys.Box/2, -sys.Box/2
		as.prm.cut[l], as.prm.minXi[l] = opt.CutoffXi, opt.MinXi
	}
	as.tensorsFn = as.tensors
	return as
}

// MinFarField returns the smallest far-field coefficient — a rigorous
// lower bound on the spectrum of R, used to bracket the eigenvalue
// interval for the Chebyshev square root.
func (as *Assembler) MinFarField() float64 { return slices.Min(as.far) }

// Build assembles the matrix at pos, reusing the neighbor candidates
// when pos has drifted less than the list's skin since they were found.
func (as *Assembler) Build(pos []blas.Vec3) *bcrs.Matrix {
	as.cand, as.wrapped = as.list.Candidates(pos)
	if as.coefGen != as.list.Rebuilds {
		as.index()
		as.coefGen = as.list.Rebuilds
	}
	return assemble(as, pos)
}

// index lays out the slots of a new candidate list: their radii, no
// pair constants yet, and every row's visits.
func (as *Assembler) index() {
	nb, n := len(as.radius), len(as.cand)
	as.slots = sized(as.slots, (n+3)/4*slotGroup)
	clear(as.slots)
	for k, c := range as.cand {
		g, l := as.slots[k/4*slotGroup:], k%4
		g[slotA1+l], g[slotA2+l] = as.radius[c[0]], as.radius[c[1]]
	}
	start := sized(as.rowStart, nb+1)
	clear(start)
	for _, c := range as.cand {
		start[c[0]+1]++
		start[c[1]+1]++
	}
	for i := range nb {
		start[i+1] += start[i] + 1
	}
	slot, col := sized(as.visitSlot, 2*n+nb), sized(as.visitCol, 2*n+nb)
	// start[i] is row i's cursor, and ends at row i+1's start. The
	// candidates are sorted by I, then J: a row's pairs (j, i) come in
	// ascending j, and its pairs (i, k) in ascending k.
	for k, c := range as.cand {
		v := start[c[1]]
		slot[v], col[v] = int32(k), c[0]
		start[c[1]]++
	}
	for i := range nb {
		v := start[i]
		slot[v], col[v] = int32(n), int32(i)
		start[i]++
	}
	for k, c := range as.cand {
		v := start[c[0]]
		slot[v], col[v] = int32(k), c[1]
		start[c[0]]++
	}
	copy(start[1:], start[:nb])
	start[0] = 0
	as.rowStart, as.visitSlot, as.visitCol = start, slot, col
}

// coef returns slot k's pair constants, computing them the first time.
func (as *Assembler) coef(k int) pairCoef {
	g, l := as.slots[k/4*slotGroup:k/4*slotGroup+slotGroup], k%4
	if g[slotScale+l] == 0 {
		c := newPairCoef(g[slotA1+l], g[slotA2+l], as.opt)
		g[slotG1+l], g[slotG2+l], g[slotG3+l] = c.g1, c.g2, c.g3
		g[slotY2+l], g[slotY3+l] = c.y2, c.y3
		g[slotXaCut+l], g[slotYaCut+l], g[slotScale+l] = c.xaCut, c.yaCut, c.scale
	}
	return pairCoef{g[slotG1+l], g[slotG2+l], g[slotG3+l], g[slotY2+l], g[slotY3+l],
		g[slotXaCut+l], g[slotYaCut+l], g[slotScale+l]}
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
// list's candidates at pos, in two passes — the candidate pass
// (parallel, one slot per candidate: its tensor and whether it is kept)
// and the row fill (serial: each row's blocks in column order, its
// diagonal summed in registers).
func assemble(as *Assembler, pos []blas.Vec3) *bcrs.Matrix {
	const bs = bcrs.BlockSize
	nb := len(as.radius)
	n := len(as.cand)
	as.kept, as.tens = sized(as.kept, n+1), sized(as.tens, n+1)
	as.kept[n], as.tens[n] = 1, negZero
	// A candidate costs about 8 ns (a square root, five divisions and a
	// logarithm per four): 720 bytes at the pool's 90 bytes a ns.
	parallel.Default().ForOp("hydro_pair_tensors", n, 720*n, as.tensorsFn)

	if as.lent != nil { // not handed back: its arrays stay its own
		as.rowPtr, as.colIdx, as.vals = nil, nil, nil
	}
	// A row holds its diagonal block and one block per kept pair. The
	// fill writes a pair's block before it knows whether it is kept, so
	// a pair that is not may write one block past the matrix.
	kept := 0
	for _, k := range as.kept[:n] {
		kept += int(k)
	}
	nnzb := nb + 2*kept
	rowPtr := sized(as.rowPtr, nb+1)
	colIdx := sized(as.colIdx, nnzb+1)
	vals := sized(as.vals, (nnzb+1)*bs)
	as.fill(pos, rowPtr, colIdx, vals)

	as.rowPtr, as.colIdx, as.vals = rowPtr, colIdx, vals
	as.cand, as.wrapped = nil, nil
	as.lent = bcrs.NewMatrix(nb, nb, rowPtr, colIdx[:nnzb], vals[:nnzb*bs])
	return as.lent
}

// fill writes the matrix row by row, each row's blocks in column order
// by its visits. Every visit's block is written, -A entry by entry, and
// the write position advances only past a kept one, so a block that is
// not kept is written over by the next; every visit's tensor is added
// into the diagonal, which one not kept (negZero) leaves as it was. The
// diagonal block starts as muF*I, made NaN for a NaN or infinite
// coordinate (x-x is 0 for any other): such a particle is in no pair,
// every cutoff test being false, and the NaN fails the step at the
// spectrum bracket or in a solve. Its sums are the Builder oracle's: far
// field first, then every pair (j, i), j < i, in ascending j, then every
// pair (i, k) in ascending k. On AVX2 each row is one pass of
// fillRowAVX2, blocks and sums together; the Go loops are its oracle and
// the path without it.
func (as *Assembler) fill(pos []blas.Vec3, rowPtr, colIdx []int32, vals []float64) {
	const bs = bcrs.BlockSize
	p := 0
	for i := range len(as.radius) {
		rowPtr[i] = int32(p)
		slots := as.visitSlot[as.rowStart[i]:as.rowStart[i+1]]
		cols := as.visitCol[as.rowStart[i]:as.rowStart[i+1]]
		f := as.far[i]
		z := f * 0 // the bits ScaleM gives the identity's zeros
		d0 := f
		if q := &pos[i]; q[0]-q[0] != 0 || q[1]-q[1] != 0 || q[2]-q[2] != 0 {
			d0 = math.NaN()
		}
		if cpufeat.AVX2 {
			p = as.fillRowSIMD(vals, colIdx, slots, cols, p, d0, f, z)
			continue
		}
		var diag int
		p, diag = as.fillRow(vals, colIdx, slots, cols, p)
		d1, d2, d3, d4, d5 := z, z, f, z, f
		for _, k := range slots {
			a := &as.tens[k]
			d0, d1, d2, d3, d4, d5 = d0+a[0], d1+a[1], d2+a[2], d3+a[3], d4+a[4], d5+a[5]
		}
		b := (*[bs]float64)(vals[diag*bs:])
		b[0], b[1], b[2] = d0, d1, d2
		b[3], b[4], b[5] = d1, d3, d4
		b[6], b[7], b[8] = d2, d4, d5
	}
	rowPtr[len(as.radius)] = int32(p)
}

// fillRow writes the blocks of one row's visits from position p on: -A
// entry by entry, the column, and p advanced past a kept visit. It
// returns the next row's first position and the diagonal block's.
func (as *Assembler) fillRow(vals []float64, colIdx, slots, cols []int32, p int) (next, diag int) {
	const bs = bcrs.BlockSize
	tens, kept, diagSlot := as.tens, as.kept, int32(len(as.cand))
	cols = cols[:len(slots)]
	for v, k := range slots {
		a := &tens[k]
		// 0 - v, not -v: a zero entry is stored as +0, as summing into
		// a zeroed block would leave it.
		n0, n1, n2, n3, n4, n5 := 0-a[0], 0-a[1], 0-a[2], 0-a[3], 0-a[4], 0-a[5]
		b := (*[bs]float64)(vals[p*bs:])
		b[0], b[1], b[2] = n0, n1, n2
		b[3], b[4], b[5] = n1, n3, n4
		b[6], b[7], b[8] = n2, n4, n5
		colIdx[p] = cols[v]
		if k == diagSlot {
			diag = p
		}
		p += int(kept[k])
	}
	return p, diag
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
// inside the cutoff) is not kept. With AVX2 it runs four candidates to a
// ymm (candAVX2) from the first slot group inside [lo, hi), in blocks of
// candBlock; the slots before that group and after the last whole one,
// and any block in which a kept lane fails the kernel's guards, run the
// Go loop, whose bits the kernel has everywhere else.
func (as *Assembler) tensors(lo, hi int) {
	if !cpufeat.AVX2 {
		as.tensorsGo(lo, hi)
		return
	}
	head := min(hi, (lo+3)&^3)
	as.tensorsGo(lo, head)
	var d candScratch
	for b := head; b < hi; b += candBlock {
		n := min(candBlock, hi-b)
		v := n &^ 3
		if v > 0 && !as.candSIMD(&d, b, v) {
			as.tensorsGo(b, b+v)
		}
		as.tensorsGo(b+v, b+n)
	}
}

// tensorsGo is the candidate pass over [lo, hi) in Go: the oracle of the
// AVX2 kernel and the path without it.
func (as *Assembler) tensorsGo(lo, hi int) {
	for k := lo; k < hi; k++ {
		c := as.cand[k]
		wa, wb := &as.wrapped[c[0]], &as.wrapped[c[1]]
		x := neighbor.Image(wb[0]-wa[0], as.box)
		y := neighbor.Image(wb[1]-wa[1], as.box)
		z := neighbor.Image(wb[2]-wa[2], as.box)
		r := math.Sqrt(x*x + y*y + z*z)
		xi := neighbor.Gap(r, as.radius[c[0]], as.radius[c[1]])
		t, kept := &as.tens[k], uint8(0)
		if xi < as.opt.CutoffXi && r > 0 {
			pc := as.coef(k)
			s := 1 / r
			pc.axial(t, xi, &blas.Vec3{s * x, s * y, s * z}, as.opt.MinXi)
			if !t.zero() {
				kept = 1
			}
		}
		if kept == 0 {
			*t = negZero
		}
		as.kept[k] = kept
	}
}
