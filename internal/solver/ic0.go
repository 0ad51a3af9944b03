package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/cpufeat"
	"repro/internal/multivec"
)

// IC0 is a block incomplete Cholesky factorization with zero fill-in:
// a block lower-triangular L with exactly the lower-triangular
// sparsity of A such that L*L^T ~ A. Applying it costs one block
// forward and one block backward substitution — about one multiply by
// A: the two sweeps together read each stored block of A's pattern
// once.
//
// This is the first of the three techniques the paper lists for
// sequences of slowly-varying systems (Section III): "invest in
// constructing a preconditioner that can be reused for solving with
// many matrices ... recomputed when the convergence rate has
// sufficiently degraded". internal/core reuses one factor for every
// solve of a window of time steps.
//
// The factor is stored the way bcrs stores a matrix, so the sweeps
// are written like its m=1 kernel: the strict-lower blocks of L in one
// flat array under a rowPtr/colIdx pattern, and per block row the
// INVERSE of the diagonal block's 3x3 Cholesky factor, so that a sweep
// multiplies where a substitution would divide.
type IC0 struct {
	nb     int
	rowPtr []int32   // strict-lower pattern of L: row i's blocks are
	colIdx []int32   // rowPtr[i]..rowPtr[i+1], columns ascending
	lower  []float64 // 9 values per strict-lower block, row-major
	// invDiag holds 9 values per block row: the inverse of the lower
	// Cholesky factor of L's diagonal block (lower triangular itself).
	invDiag []float64
	colPos  []int32 // factorization scratch: where block column j sits in the current row, -1 when absent
}

// ErrICBreakdown is returned when a pivot block loses positive
// definiteness during the incomplete factorization, or is not finite.
var ErrICBreakdown = errors.New("solver: incomplete Cholesky breakdown")

// NewIC0 factors the SPD block matrix a; see Refactor, which the zero
// IC0 is ready for.
func NewIC0(a *bcrs.Matrix) (*IC0, error) {
	ic := new(IC0)
	if err := ic.Refactor(a); err != nil {
		return nil, err
	}
	return ic, nil
}

// Refactor replaces the factor with that of a, in the storage the
// receiver already holds when a's lower triangle fits it (a sequence
// of same-shaped matrices allocates once). Only the lower triangle of
// a's sparsity is read. A pivot block that is not positive definite
// is answered with a diagonal shift: the factorization retries on
// A + shift*diag(A), quadrupling the shift (the Manteuffel remedy), up
// to a bound. A pivot that is not finite — NaN or Inf in a, or
// overflow — cannot be shifted away and fails at once. After an error
// the receiver holds no usable factor until a Refactor succeeds.
func (ic *IC0) Refactor(a *bcrs.Matrix) error {
	if a.NB() != a.NCB() {
		return errors.New("solver: IC0 requires a square matrix")
	}
	if err := ic.setPattern(a); err != nil {
		return err
	}
	shift := 0.0
	for try := 0; try < 8; try++ {
		pivot, ok := ic.factor(a, shift)
		if ok {
			return nil
		}
		if math.IsNaN(pivot) || math.IsInf(pivot, 0) {
			break
		}
		if shift == 0 {
			shift = 1e-3
		} else {
			shift *= 4
		}
	}
	return ErrICBreakdown
}

// setPattern sizes the factor for a and records the strict-lower
// pattern. Block columns are sorted within a row, so row i's
// strict-lower blocks are the leading blocks of a's row i and its
// diagonal block follows them; factor relies on that to find a's
// values again without a second index.
func (ic *IC0) setPattern(a *bcrs.Matrix) error {
	nb := a.NB()
	ic.nb = nb
	if cap(ic.rowPtr) < nb+1 {
		ic.rowPtr = make([]int32, nb+1)
		ic.colPos = make([]int32, nb)
		ic.invDiag = make([]float64, nb*bcrs.BlockSize)
	}
	ic.rowPtr, ic.colPos, ic.invDiag = ic.rowPtr[:nb+1], ic.colPos[:nb], ic.invDiag[:nb*bcrs.BlockSize]
	ic.colIdx = ic.colIdx[:0]
	for i := 0; i < nb; i++ {
		lo, hi := a.RowBlocks(i)
		k := lo
		for ; k < hi && a.BlockCol(k) < i; k++ {
			// The assembly sweeps index z by it unchecked.
			if a.BlockCol(k) < 0 {
				return fmt.Errorf("solver: IC0 row %d: column %d out of range", i, a.BlockCol(k))
			}
			ic.colIdx = append(ic.colIdx, int32(a.BlockCol(k)))
		}
		if k == hi || a.BlockCol(k) != i {
			return errors.New("solver: IC0 requires stored diagonal blocks")
		}
		ic.rowPtr[i+1] = int32(len(ic.colIdx))
	}
	// One float64 of slack: ic0BackwardAVX2 loads a block's last row
	// four wide.
	if need := len(ic.colIdx) * bcrs.BlockSize; cap(ic.lower) < need+1 {
		ic.lower = make([]float64, need, need+1)
	} else {
		ic.lower = ic.lower[:need]
	}
	return nil
}

// factor runs the factorization of a + shift*diag(a) over the pattern
// setPattern recorded, reading a's blocks in place. On a pivot that is
// not a finite positive number it stops and returns that pivot.
func (ic *IC0) factor(a *bcrs.Matrix, shift float64) (pivot float64, ok bool) {
	const bs = bcrs.BlockSize
	rowPtr, colIdx, colPos := ic.rowPtr, ic.colIdx, ic.colPos
	for j := range colPos {
		colPos[j] = -1
	}
	for i := 0; i < ic.nb; i++ {
		lo, hi := int(rowPtr[i]), int(rowPtr[i+1])
		aLo, _ := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			colPos[colIdx[k]] = int32(k)
		}
		// For each stored block (i, j), j < i:
		// L_ij = (A_ij - sum_{p<j, p in both rows} L_ip * L_jp^T) * L_jj^{-T}
		diag := a.BlockAt(aLo + hi - lo)
		for q := 0; q < 3; q++ {
			diag[q*3+q] *= 1 + shift
		}
		for k := lo; k < hi; k++ {
			j := int(colIdx[k])
			acc := a.BlockAt(aLo + k - lo)
			for q := int(rowPtr[j]); q < int(rowPtr[j+1]); q++ {
				if kp := int(colPos[colIdx[q]]); kp >= 0 && kp < k {
					subMulABt(&acc, ic.lower[kp*bs:kp*bs+bs], ic.lower[q*bs:q*bs+bs])
				}
			}
			// L_ij = acc * L_jj^{-T}: row r of it is inv(L_jj) times row r of acc.
			d := ic.invDiag[j*bs : j*bs+bs : j*bs+bs]
			l := ic.lower[k*bs : k*bs+bs : k*bs+bs]
			for r := 0; r < 3; r++ {
				b0, b1, b2 := acc[3*r], acc[3*r+1], acc[3*r+2]
				l[3*r] = d[0] * b0
				l[3*r+1] = d[3]*b0 + d[4]*b1
				l[3*r+2] = d[6]*b0 + d[7]*b1 + d[8]*b2
			}
			// Diagonal: L_ii L_ii^T = A_ii - sum_p L_ip L_ip^T.
			subMulABt(&diag, l, l)
		}
		chol, bad, ok := chol3(diag)
		if !ok {
			return bad, false
		}
		invLower3(ic.invDiag[i*bs:i*bs+bs:i*bs+bs], chol)
		for k := lo; k < hi; k++ {
			colPos[colIdx[k]] = -1
		}
	}
	return 0, true
}

// subMulABt subtracts A * B^T from acc, for 3x3 row-major blocks.
func subMulABt(acc *blas.Mat3, a, b []float64) {
	_, _ = a[8], b[8]
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			acc[i*3+j] -= a[i*3]*b[j*3] + a[i*3+1]*b[j*3+1] + a[i*3+2]*b[j*3+2]
		}
	}
}

// chol3 returns the lower Cholesky factor of a 3x3 SPD block. A pivot
// that is not a finite positive number — NaN compares false against
// everything, so the test is on what a pivot must be — ends it: the
// pivot comes back with ok false.
func chol3(a blas.Mat3) (l blas.Mat3, pivot float64, ok bool) {
	for j := 0; j < 3; j++ {
		d := a[j*3+j]
		for k := 0; k < j; k++ {
			d -= l[j*3+k] * l[j*3+k]
		}
		if !(d > 0) || math.IsInf(d, 0) {
			return l, d, false
		}
		d = math.Sqrt(d)
		l[j*3+j] = d
		for i := j + 1; i < 3; i++ {
			s := a[i*3+j]
			for k := 0; k < j; k++ {
				s -= l[i*3+k] * l[j*3+k]
			}
			l[i*3+j] = s / d
		}
	}
	return l, 0, true
}

// invLower3 writes the inverse of the 3x3 lower-triangular l into dst.
func invLower3(dst []float64, l blas.Mat3) {
	i0, i1, i2 := 1/l[0], 1/l[4], 1/l[8]
	i10 := -l[3] * i0 * i1
	dst[0], dst[1], dst[2] = i0, 0, 0
	dst[3], dst[4], dst[5] = i10, i1, 0
	dst[6], dst[7], dst[8] = -(l[6]*i0+l[7]*i10)*i2, -l[7]*i1*i2, i2
}

// Apply computes z = (L L^T)^{-1} r: one forward and one backward
// block substitution. It satisfies the Preconditioner interface and
// allocates nothing.
func (ic *IC0) Apply(z, r []float64) {
	const bs = bcrs.BlockSize
	if n := ic.nb * 3; len(z) != n || len(r) != n {
		panic("solver: IC0 dimension mismatch")
	}
	// ic0_amd64.s wants AVX2 and a strict-lower block to point at; the
	// loops below are its oracle and every other host's path.
	if cpufeat.AVX2 && len(ic.colIdx) > 0 {
		ic.sweepSIMD(z, r, 1, 1)
		return
	}
	rowPtr, colIdx, lower, inv := ic.rowPtr, ic.colIdx, ic.lower, ic.invDiag
	// Forward: L*y = r, y stored in z. Row i gathers from the rows
	// before it.
	for i := 0; i < ic.nb; i++ {
		s0, s1, s2 := r[3*i], r[3*i+1], r[3*i+2]
		for k := int(rowPtr[i]); k < int(rowPtr[i+1]); k++ {
			v := lower[k*bs : k*bs+bs : k*bs+bs]
			j := int(colIdx[k]) * 3
			y0, y1, y2 := z[j], z[j+1], z[j+2]
			s0 -= v[0]*y0 + v[1]*y1 + v[2]*y2
			s1 -= v[3]*y0 + v[4]*y1 + v[5]*y2
			s2 -= v[6]*y0 + v[7]*y1 + v[8]*y2
		}
		d := inv[i*bs : i*bs+bs : i*bs+bs]
		z[3*i] = d[0] * s0
		z[3*i+1] = d[3]*s0 + d[4]*s1
		z[3*i+2] = d[6]*s0 + d[7]*s1 + d[8]*s2
	}
	// Backward: L^T*x = y. L^T's rows are L's columns, so row i, once
	// solved, scatters its coupling to the pending rows before it.
	for i := ic.nb - 1; i >= 0; i-- {
		d := inv[i*bs : i*bs+bs : i*bs+bs]
		s0, s1, s2 := z[3*i], z[3*i+1], z[3*i+2]
		x0 := d[0]*s0 + d[3]*s1 + d[6]*s2
		x1 := d[4]*s1 + d[7]*s2
		x2 := d[8] * s2
		z[3*i], z[3*i+1], z[3*i+2] = x0, x1, x2
		for k := int(rowPtr[i]); k < int(rowPtr[i+1]); k++ {
			v := lower[k*bs : k*bs+bs : k*bs+bs]
			j := int(colIdx[k]) * 3
			z[j] -= v[0]*x0 + v[3]*x1 + v[6]*x2
			z[j+1] -= v[1]*x0 + v[4]*x1 + v[7]*x2
			z[j+2] -= v[2]*x0 + v[5]*x1 + v[8]*x2
		}
	}
}

// ApplyBlock is Apply on every column of a block at once: each sweep
// runs once, a stored block is loaded once for all m row-major
// columns, and column j of z is bitwise what Apply gives on column j
// of r. BlockCG preconditions through it. With AVX2 only the m%4 last
// columns go through the loops here.
func (ic *IC0) ApplyBlock(z, r *multivec.MultiVec) {
	const bs = bcrs.BlockSize
	m := z.M
	if n := ic.nb * 3; z.N != n || r.N != n || r.M != m {
		panic("solver: IC0 dimension mismatch")
	}
	c0 := 0 // the loops take columns [c0, m)
	if m >= 4 && cpufeat.AVX2 && len(ic.colIdx) > 0 {
		c0 = m &^ 3
		ic.sweepSIMD(z.Data, r.Data, m, c0)
	}
	if c0 == m {
		return
	}
	rowPtr, colIdx, lower, inv := ic.rowPtr, ic.colIdx, ic.lower, ic.invDiag
	zd := z.Data
	for i := 0; i < ic.nb; i++ {
		zi := zd[3*i*m : 3*(i+1)*m : 3*(i+1)*m]
		ri := r.Data[3*i*m : 3*(i+1)*m]
		z0, z1, z2 := zi[0:m], zi[m:2*m], zi[2*m:3*m]
		copy(z0[c0:], ri[c0:m])
		copy(z1[c0:], ri[m+c0:2*m])
		copy(z2[c0:], ri[2*m+c0:])
		for k := int(rowPtr[i]); k < int(rowPtr[i+1]); k++ {
			v := lower[k*bs : k*bs+bs : k*bs+bs]
			j := int(colIdx[k]) * 3 * m
			y0, y1, y2 := zd[j:j+m], zd[j+m:j+2*m], zd[j+2*m:j+3*m]
			v0, v1, v2, v3, v4, v5, v6, v7, v8 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8]
			for c := c0; c < m; c++ {
				a0, a1, a2 := y0[c], y1[c], y2[c]
				z0[c] -= v0*a0 + v1*a1 + v2*a2
				z1[c] -= v3*a0 + v4*a1 + v5*a2
				z2[c] -= v6*a0 + v7*a1 + v8*a2
			}
		}
		d := inv[i*bs : i*bs+bs : i*bs+bs]
		for c := c0; c < m; c++ {
			s0, s1, s2 := z0[c], z1[c], z2[c]
			z0[c] = d[0] * s0
			z1[c] = d[3]*s0 + d[4]*s1
			z2[c] = d[6]*s0 + d[7]*s1 + d[8]*s2
		}
	}
	for i := ic.nb - 1; i >= 0; i-- {
		zi := zd[3*i*m : 3*(i+1)*m : 3*(i+1)*m]
		z0, z1, z2 := zi[0:m], zi[m:2*m], zi[2*m:3*m]
		d := inv[i*bs : i*bs+bs : i*bs+bs]
		for c := c0; c < m; c++ {
			s0, s1, s2 := z0[c], z1[c], z2[c]
			z0[c] = d[0]*s0 + d[3]*s1 + d[6]*s2
			z1[c] = d[4]*s1 + d[7]*s2
			z2[c] = d[8] * s2
		}
		for k := int(rowPtr[i]); k < int(rowPtr[i+1]); k++ {
			v := lower[k*bs : k*bs+bs : k*bs+bs]
			j := int(colIdx[k]) * 3 * m
			y0, y1, y2 := zd[j:j+m], zd[j+m:j+2*m], zd[j+2*m:j+3*m]
			v0, v1, v2, v3, v4, v5, v6, v7, v8 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8]
			for c := c0; c < m; c++ {
				a0, a1, a2 := z0[c], z1[c], z2[c]
				y0[c] -= v0*a0 + v3*a1 + v6*a2
				y1[c] -= v1*a0 + v4*a1 + v7*a2
				y2[c] -= v2*a0 + v5*a1 + v8*a2
			}
		}
	}
}
