package solver

import "repro/internal/multivec"

// BlockOperator is what every solver needs from a linear operator: its
// scalar dimension and one multiply by a block of vectors (the GSPMV of
// the paper), a vector being the block of width 1. *bcrs.Matrix
// satisfies it directly; *cluster.Cluster runs its distributed multiply
// in the same shape, so the same solvers run unchanged on one node or on
// the simulated cluster — the distributed-memory SD groundwork the paper
// defers ("We do not currently have a distributed memory SD simulation
// code", Section V-A).
type BlockOperator interface {
	// N returns the scalar dimension.
	N() int
	// Mul computes Y = A*X for row-major blocks of vectors; Y must
	// not alias X.
	Mul(y, x *multivec.MultiVec)
}
