package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/multivec"
	"repro/internal/partition"
	"repro/internal/solver"
)

// TestDistributedCG runs plain CG with the cluster as the operator:
// the solution must match the single-node solve.
func TestDistributedCG(t *testing.T) {
	a, pos, box := testMatrix(21, 200)
	r := partition.Coordinate(a, pos, box, 6, 0)
	cl, err := New(a, r.Part, 6)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(22))
	b := make([]float64, a.N())
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	serial := make([]float64, a.N())
	stS := solver.CG(a, serial, b, solver.Options{Tol: 1e-10})
	dist := make([]float64, a.N())
	stD := solver.CG(cl, dist, b, solver.Options{Tol: 1e-10})
	if !stS.Converged || !stD.Converged {
		t.Fatalf("convergence: serial=%v distributed=%v", stS.Converged, stD.Converged)
	}
	for i := range serial {
		if math.Abs(serial[i]-dist[i]) > 1e-6*(1+math.Abs(serial[i])) {
			t.Fatalf("distributed CG differs at %d: %v vs %v", i, serial[i], dist[i])
		}
	}
}

// TestDistributedBlockCG runs the MRHS augmented solve distributed:
// block CG over the cluster operator, every iteration one distributed
// GSPMV with halo exchange.
func TestDistributedBlockCG(t *testing.T) {
	a, pos, box := testMatrix(23, 180)
	r := partition.RCB(a, pos, 4)
	cl, err := New(a, r.Part, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := 5
	rnd := rand.New(rand.NewSource(24))
	b := multivec.New(a.N(), m)
	for i := range b.Data {
		b.Data[i] = rnd.NormFloat64()
	}
	serial := multivec.New(a.N(), m)
	stS := solver.BlockCG(nil, a, serial, b, solver.Options{Tol: 1e-10})
	dist := multivec.New(a.N(), m)
	stD := solver.BlockCG(nil, cl, dist, b, solver.Options{Tol: 1e-10})
	if !stS.Converged || !stD.Converged {
		t.Fatalf("convergence: serial=%v distributed=%v", stS.Converged, stD.Converged)
	}
	for i := range serial.Data {
		if math.Abs(serial.Data[i]-dist.Data[i]) > 1e-6*(1+math.Abs(serial.Data[i])) {
			t.Fatal("distributed block CG differs from serial")
		}
	}
	// Iteration counts should agree too (same arithmetic up to FP
	// summation order).
	if d := stS.Iterations - stD.Iterations; d > 2 || d < -2 {
		t.Fatalf("iteration counts diverged: %d vs %d", stS.Iterations, stD.Iterations)
	}
	_ = box
}

// TestClusterSatisfiesOperatorInterfaces pins the adapter contract.
func TestClusterSatisfiesOperatorInterfaces(t *testing.T) {
	var _ solver.BlockOperator = (*Cluster)(nil)
}
