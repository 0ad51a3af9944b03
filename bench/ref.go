package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/rng"
)

// refMul computes y = A*x with the plainest loops over the matrix's
// public accessors. It shares no code with the kernels it checks.
func refMul(a *bcrs.Matrix, y, x *multivec.MultiVec) {
	m := x.M
	y.Zero()
	for i := 0; i < a.NB(); i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			blk := a.BlockAt(k)
			j := a.BlockCol(k)
			for r := 0; r < bcrs.BlockDim; r++ {
				yr := y.Row(bcrs.BlockDim*i + r)
				for c := 0; c < bcrs.BlockDim; c++ {
					v := blk[bcrs.BlockDim*r+c]
					xr := x.Row(bcrs.BlockDim*j + c)
					for t := 0; t < m; t++ {
						yr[t] += v * xr[t]
					}
				}
			}
		}
	}
}

// maxRelDiff returns max|got-want| / max|want|.
func maxRelDiff(got, want []float64) float64 {
	var diff, scale float64
	for i, w := range want {
		diff = math.Max(diff, math.Abs(got[i]-w))
		scale = math.Max(scale, math.Abs(w))
	}
	return ratio(diff, scale)
}

// checkResidual fails unless ||A*x-b|| <= 10*tol*||b||, with the
// product taken by refMul.
func checkResidual(a *bcrs.Matrix, x, b []float64, tol float64) error {
	ax := multivec.New(a.N(), 1)
	refMul(a, ax, multivec.FromVector(x))
	var rr, bb float64
	for i, v := range b {
		d := ax.Data[i] - v
		rr += d * d
		bb += v * v
	}
	if res, lim := math.Sqrt(rr), 10*tol*math.Sqrt(bb); !(res <= lim) {
		return fmt.Errorf("residual %.3g exceeds 10*tol*||b|| = %.3g", res, lim)
	}
	return nil
}

// digest hashes generated inputs and deterministic results, so that
// two set-ups with one seed can be compared.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) floats(xs []float64) {
	for _, x := range xs {
		d.u64(math.Float64bits(x))
	}
}

func (d digest) matrix(a *bcrs.Matrix) {
	d.u64(uint64(a.NB()))
	for i := 0; i < a.NB(); i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			d.u64(uint64(a.BlockCol(k)))
			blk := a.BlockAt(k)
			d.floats(blk[:])
		}
	}
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// Each input of a workload draws from its own stream of the run's
// seed.
const (
	streamMatrix = iota + 1
	streamOperand
	streamArrivals
)

func subSeed(seed uint64, stream uint64) uint64 { return rng.Substream(seed, stream).Uint64() }

// probedOp is the matrix the untraced serving runs hand to the
// engine: the multiplies are made on the engine's dispatcher, and this
// is where the host's speed is probed on that thread.
type probedOp struct{ *bcrs.Matrix }

func (o probedOp) MulVec(y, x []float64) {
	meter.maybeSample()
	o.Matrix.MulVec(y, x)
}

func (o probedOp) Mul(y, x *multivec.MultiVec) {
	meter.maybeSample()
	o.Matrix.Mul(y, x)
}

// tracedOp times every multiply through a matrix. It is what the
// traced runs hand to the solvers in place of the matrix; the untraced
// runs hand them the matrix itself.
type tracedOp struct {
	a   *bcrs.Matrix
	k   *track
	tag *phase
}

func (o *tracedOp) N() int { return o.a.N() }

func (o *tracedOp) MulVec(y, x []float64) {
	id := o.k.begin(spanMul, *o.tag, 1)
	o.a.MulVec(y, x)
	o.k.end(id)
}

func (o *tracedOp) Mul(y, x *multivec.MultiVec) {
	id := o.k.begin(spanMul, *o.tag, x.M)
	o.a.Mul(y, x)
	o.k.end(id)
}
