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

// ColumnOperator is a BlockOperator whose columns may multiply
// through *distinct* underlying systems — an ensemble of K
// equal-dimension operators fused into one logical block operator
// (core.EnsembleRunner's lockstep trajectories). MultiCG retires
// finished columns and compacts the survivors into the leading lanes,
// so the operator must be told which logical system each surviving
// column belongs to: ids[j] names the system column j of x multiplies
// through. Columns of x beyond len(ids) are kernel padding, zero on
// input; the operator may compute anything for them (the solve never
// reads them) but must not read ids out of range.
type ColumnOperator interface {
	BlockOperator
	// MulCols computes Y[:,j] = A_{ids[j]} * X[:,j] for each j.
	MulCols(y, x *multivec.MultiVec, ids []int)
}

// mulColumns multiplies through the column-identity path when the
// operator distinguishes its columns, and through the plain fused
// GSPMV otherwise.
func mulColumns(a BlockOperator, y, x *multivec.MultiVec, ids []int) {
	if co, ok := a.(ColumnOperator); ok {
		co.MulCols(y, x, ids)
		return
	}
	a.Mul(y, x)
}
