package solver

import "repro/internal/multivec"

// Operator is what the single-vector iterative solvers need from a
// linear operator: its scalar dimension and a matrix-vector product.
// *bcrs.Matrix satisfies it directly; *cluster.Cluster wraps its
// distributed multiply into the same shape, so the same CG runs
// unchanged on one node or on the simulated cluster — the
// distributed-memory SD groundwork the paper defers ("We do not
// currently have a distributed memory SD simulation code",
// Section V-A).
type Operator interface {
	// N returns the scalar dimension.
	N() int
	// MulVec computes y = A*x; y must not alias x.
	MulVec(y, x []float64)
}

// BlockOperator is the multiple-vector counterpart used by the block
// solvers and the Chebyshev recurrence: one call multiplies the
// operator by a block of vectors (the GSPMV of the paper).
type BlockOperator interface {
	// N returns the scalar dimension.
	N() int
	// Mul computes Y = A*X for row-major blocks of vectors; Y must
	// not alias X.
	Mul(y, x *multivec.MultiVec)
}
