package bcrs

import (
	"repro/internal/blas"
	"repro/internal/rng"
)

// RandomOptions configures the synthetic matrix generator.
type RandomOptions struct {
	// NB is the number of block rows.
	NB int
	// BlocksPerRow is the target average nnzb/nb (including the
	// diagonal block). Values below 1 are clamped to 1.
	BlocksPerRow float64
	// Bandwidth restricts off-diagonal block columns to within this
	// distance of the diagonal (wrapping periodically), mimicking the
	// spatial locality of particle-interaction matrices. Zero means
	// NB/16.
	Bandwidth int
	// NoWrap clips off-diagonal columns at NB instead of wrapping
	// them periodically. The wrap puts blocks in the matrix's far
	// corners, which no reordered (e.g. RCM) interaction matrix has;
	// the symmetric-kernel benchmarks use NoWrap so the scatter
	// windows reflect the banded structure real systems present.
	NoWrap bool
	// Seed drives the deterministic generator.
	Seed uint64
}

// Random generates a symmetric positive definite block matrix with
// approximately the requested blocks-per-row density. It is the
// synthetic stand-in for the paper's mat1/mat2/mat3 (Table I), used by
// the GSPMV benchmarks when running kernels without assembling a full
// Stokesian-dynamics system: the structure is banded-random to mimic
// the locality of a cutoff-based interaction matrix.
//
// Symmetry comes from inserting each off-diagonal pair (i,j), (j,i)
// with transposed blocks; positive definiteness comes from making
// each diagonal block dominant over its row sum.
func Random(opt RandomOptions) *Matrix {
	nb := opt.NB
	if nb <= 0 {
		panic("bcrs: Random requires NB > 0")
	}
	bpr := opt.BlocksPerRow
	if bpr < 1 {
		bpr = 1
	}
	w := opt.Bandwidth
	if w <= 0 {
		w = nb / 16
	}
	if w < 1 {
		w = 1
	}
	s := rng.New(opt.Seed)
	b := NewBuilder(nb)

	// Each row receives on average (bpr-1)/2 generated pairs; the
	// mirrored insertions double the off-diagonal count back to
	// bpr-1.
	pairsPerRow := (bpr - 1) / 2
	rowSum := make([]float64, nb) // accumulated |off-diagonal| per block row
	for i := 0; i < nb; i++ {
		// Deterministic fractional count: floor + Bernoulli remainder.
		k := int(pairsPerRow)
		if s.Float64() < pairsPerRow-float64(k) {
			k++
		}
		for p := 0; p < k; p++ {
			j := i + 1 + s.Intn(w)
			if opt.NoWrap {
				if j >= nb {
					continue
				}
			} else {
				j %= nb
			}
			if j == i {
				continue
			}
			var blk blas.Mat3
			var sum float64
			for q := range blk {
				blk[q] = s.Normal() * 0.1
				if blk[q] < 0 {
					sum -= blk[q]
				} else {
					sum += blk[q]
				}
			}
			b.AddBlock(i, j, blk)
			b.AddBlock(j, i, blk.Transpose3())
			rowSum[i] += sum
			rowSum[j] += sum
		}
	}
	for i := 0; i < nb; i++ {
		// Diagonally dominant symmetric diagonal block.
		d := blas.Ident3().ScaleM(rowSum[i] + 1)
		b.AddBlock(i, i, d)
	}
	return b.Build()
}
