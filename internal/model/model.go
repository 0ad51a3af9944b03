// Package model implements the analytic performance model of Section
// IV-B of the paper, covering both the GSPMV kernel (Eq. 8) and the
// end-to-end MRHS simulation step (Eq. 9-12).
//
// The GSPMV model bounds the time to multiply by m vectors as the
// maximum of a bandwidth bound and a compute bound:
//
//	Mtr(m) = m*nb*(3+k(m))*sx + 4*nb + nnzb*(4+sa)   (bytes moved)
//	Tbw(m)   = Mtr(m)/B
//	Tcomp(m) = fa*m*nnzb/F
//	T(m)     = max(Tbw(m), Tcomp(m))
//	r(m)     = T(m)/Tbw(1)                            (relative time)
//
// where B is achievable memory bandwidth, F achievable kernel flop
// rate, sa the bytes per stored block (72 for double-precision 3x3),
// sx the bytes per vector scalar (8), fa the flops per block per
// vector (18), and k(m) the extra per-element X accesses caused by
// imperfect cache reuse.
//
// The MRHS model (Eq. 9) prices one simulation step of Algorithm 2:
//
//	Tmrhs(m) = [ N*T(m) + Cmax*T(m) + (m-1)*N1*T(1)
//	             + m*N2*T(1) + (m-1)*Cmax*T(1) ] / m
//
// with N, N1, N2 the iteration counts of the solves without/with
// initial guesses and Cmax the Chebyshev polynomial order. Its
// minimizer m_optimal sits near m_s, the vector count where GSPMV
// switches from bandwidth-bound to compute-bound — the paper's
// Table VIII observation.
package model

import "math"

// Machine holds the two hardware parameters of the model.
type Machine struct {
	// B is achievable memory bandwidth in bytes per second (STREAM).
	B float64
	// F is the achievable flop rate of the basic kernel in flops per
	// second.
	F float64
}

// ByteFlopRatio returns B/F, the x-axis of the paper's Figure 1.
func (mc Machine) ByteFlopRatio() float64 { return mc.B / mc.F }

// The two single-node systems evaluated in the paper (Section IV-C1,
// IV-D1). WSM is the 6-core 3.3 GHz Westmere (STREAM 23 GB/s, basic
// kernel ~45 Gflop/s); SNB the 8-core 2.6 GHz Sandy Bridge (33 GB/s,
// ~90 Gflop/s).
var (
	WSM = Machine{B: 23e9, F: 45e9}
	SNB = Machine{B: 33e9, F: 90e9}
)

// Constants of the block format (double precision, 3x3 blocks).
const (
	Sa = 72.0 // bytes per stored matrix block
	Sx = 8.0  // bytes per vector scalar
	Fa = 18.0 // flops per block per vector
	// IdxBlock and IdxRow are the 4-byte index costs charged per
	// block and per block row by the traffic model.
	IdxBlock = 4.0
	IdxRow   = 4.0
)

// Shape describes a matrix as the model sees it: block rows and
// stored blocks.
type Shape struct {
	NB   int // block rows
	NNZB int // stored non-zero blocks
}

// BlocksPerRow returns nnzb/nb.
func (s Shape) BlocksPerRow() float64 {
	if s.NB == 0 {
		return 0
	}
	return float64(s.NNZB) / float64(s.NB)
}

// KFunc gives k(m), the number of additional memory accesses per
// element of X beyond the compulsory read of X and read+write of Y.
// It depends on matrix structure and cache behavior; for the SD
// matrices of the paper it is a weak function of m, approximately 3.
type KFunc func(m int) float64

// ConstK returns a k(m) that is constant in m.
func ConstK(k float64) KFunc { return func(int) float64 { return k } }

// DefaultK is the paper's quoted value for typical SD matrices
// (~25 blocks per block row): k(m) ~ 3 for m between 1 and 42.
var DefaultK = ConstK(3)

// GSPMV evaluates the kernel-level model for one machine and matrix
// shape.
type GSPMV struct {
	Machine Machine
	Shape   Shape
	K       KFunc
	// KSym, when set, replaces K for the symmetric-kernel bounds.
	// The symmetric kernel's cache window is wider than the general
	// kernel's — its transposed scatter read-modify-writes a
	// span-wide window of Y on top of the X gathers — so under a
	// capacity model (CapacityK) it overflows at roughly half the
	// vector count and deserves its own k.
	KSym KFunc
}

// k returns k(m), defaulting to DefaultK when unset.
func (g GSPMV) k(m int) float64 {
	if g.K == nil {
		return DefaultK(m)
	}
	return g.K(m)
}

// kSym returns the symmetric kernel's k(m), defaulting to k.
func (g GSPMV) kSym(m int) float64 {
	if g.KSym == nil {
		return g.k(m)
	}
	return g.KSym(m)
}

// TrafficBytes returns Mtr(m): the bytes moved by one multiply with m
// vectors.
func (g GSPMV) TrafficBytes(m int) float64 {
	nb := float64(g.Shape.NB)
	nnzb := float64(g.Shape.NNZB)
	return float64(m)*nb*(3+g.k(m))*Sx + IdxRow*nb + nnzb*(IdxBlock+Sa)
}

// Tbw returns the bandwidth-bound time for m vectors, in seconds.
func (g GSPMV) Tbw(m int) float64 {
	return g.TrafficBytes(m) / g.Machine.B
}

// Tcomp returns the compute-bound time for m vectors, in seconds.
func (g GSPMV) Tcomp(m int) float64 {
	return Fa * float64(m) * float64(g.Shape.NNZB) / g.Machine.F
}

// T returns the modeled multiply time: max of the two bounds.
func (g GSPMV) T(m int) float64 {
	return math.Max(g.Tbw(m), g.Tcomp(m))
}

// RelativeTime returns r(m) = T(m)/Tbw(1) per Eq. 8. The denominator
// uses the bandwidth bound at m=1, matching the paper's assumption
// that single-vector SPMV is bandwidth-bound.
func (g GSPMV) RelativeTime(m int) float64 {
	return g.T(m) / g.Tbw(1)
}

// MSwitch returns m_s, the smallest vector count at which GSPMV
// becomes compute-bound, searching up to maxM. If the kernel stays
// bandwidth-bound through maxM (e.g. mat1's low nnzb/nb), it returns
// maxM+1.
func (g GSPMV) MSwitch(maxM int) int {
	for m := 1; m <= maxM; m++ {
		if g.Tcomp(m) >= g.Tbw(m) {
			return m
		}
	}
	return maxM + 1
}

// VectorsAtRatio returns the largest m (searched up to maxM) such
// that r(m) <= ratio. This is the quantity contoured in Figure 1 with
// ratio = 2.
func (g GSPMV) VectorsAtRatio(ratio float64, maxM int) int {
	best := 0
	for m := 1; m <= maxM; m++ {
		if g.RelativeTime(m) <= ratio {
			best = m
		}
	}
	return best
}

// Fig1Cell evaluates the Figure 1 profile at a single (nnzb/nb, B/F)
// point with k(m)=0 as the figure optimistically assumes: the number
// of vectors computable in twice the single-vector time. The absolute
// scale of nb cancels in r(m), so a nominal nb is used.
func Fig1Cell(blocksPerRow, byteFlop float64, maxM int) int {
	const nb = 100000
	g := GSPMV{
		Machine: Machine{B: byteFlop, F: 1}, // only the ratio matters
		Shape:   Shape{NB: nb, NNZB: int(blocksPerRow * nb)},
		K:       ConstK(0),
	}
	return g.VectorsAtRatio(2, maxM)
}

// Fig1Profile evaluates Fig1Cell over a grid: rows indexed by
// blocksPerRow values, columns by B/F values.
func Fig1Profile(blocksPerRow, byteFlop []float64, maxM int) [][]int {
	out := make([][]int, len(blocksPerRow))
	for i, bpr := range blocksPerRow {
		row := make([]int, len(byteFlop))
		for j, bf := range byteFlop {
			row[j] = Fig1Cell(bpr, bf, maxM)
		}
		out[i] = row
	}
	return out
}
