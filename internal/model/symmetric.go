package model

import "math"

// Symmetric-storage extension of the Section IV-B model. The paper's
// kernels "do not exploit any symmetry in the matrices" (Section IV);
// storing only the upper triangle halves the matrix term of Mtr while
// leaving the vector terms and the flop count unchanged (every block
// is still applied — half of them twice, once transposed):
//
//	nnzb_sym    = (nnzb + nb)/2                      (full diagonal)
//	Mtr_sym(m)  = m*nb*(3+k)*sx + 4*nb + nnzb_sym*(4+sa)
//	Tcomp_sym   = Tcomp                              (same flops)
//	T_sym(m)    = max(Mtr_sym(m)/B, Tcomp(m))
//
// Because the savings live entirely in the bandwidth bound, the
// symmetric kernel is fastest exactly where MRHS itself wins — small
// m, bandwidth-bound — and the advantage decays to 1x past the
// compute switch point, which moves earlier (MSwitchSym <= MSwitch).

// SymNNZB returns the stored block count of the upper-triangle
// extraction of this shape, assuming a full diagonal.
func (s Shape) SymNNZB() int {
	return (s.NNZB + s.NB) / 2
}

// SymTrafficBytes returns Mtr_sym(m): the bytes moved by one
// half-storage multiply with m vectors.
func (g GSPMV) SymTrafficBytes(m int) float64 {
	nb := float64(g.Shape.NB)
	nnzbSym := float64(g.Shape.SymNNZB())
	return float64(m)*nb*(3+g.kSym(m))*Sx + IdxRow*nb + nnzbSym*(IdxBlock+Sa)
}

// TbwSym returns the bandwidth-bound time of the symmetric multiply.
func (g GSPMV) TbwSym(m int) float64 {
	return g.SymTrafficBytes(m) / g.Machine.B
}

// TSym returns the modeled symmetric multiply time. The compute bound
// is the general kernel's: the half storage performs the same flops.
func (g GSPMV) TSym(m int) float64 {
	return math.Max(g.TbwSym(m), g.Tcomp(m))
}

// RelativeTimeSym returns r_sym(m) = T_sym(m)/Tbw(1), normalized by
// the GENERAL m=1 bandwidth bound so it is directly comparable with
// RelativeTime: the predicted symmetric-vs-general speedup at m is
// RelativeTime(m)/RelativeTimeSym(m).
func (g GSPMV) RelativeTimeSym(m int) float64 {
	return g.TSym(m) / g.Tbw(1)
}

// SymSpeedup returns the predicted T(m)/T_sym(m). It approaches
// (vector traffic + full matrix)/(vector traffic + half matrix) while
// bandwidth-bound and decays to 1 once both kernels are compute-bound.
func (g GSPMV) SymSpeedup(m int) float64 {
	return g.T(m) / g.TSym(m)
}

// MSwitchSym returns the smallest vector count at which the symmetric
// multiply becomes compute-bound (never later than MSwitch: halving B
// moves the crossover left).
func (g GSPMV) MSwitchSym(maxM int) int {
	for m := 1; m <= maxM; m++ {
		if g.Tcomp(m) >= g.TbwSym(m) {
			return m
		}
	}
	return maxM + 1
}
