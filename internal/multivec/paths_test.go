package multivec_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/particles"
	"repro/internal/rng"
	"repro/internal/sd"
	"repro/internal/solver"
)

// The kernel-level contract (simd_test.go) carried up the stack: a
// block solve and a whole MRHS chunk computed with the AVX2 kernels
// and with the Go loops are the same computation. These live here, in
// multivec's external test package, because the switch between the
// two paths is not exported to other packages.

func sdSystem(t testing.TB, n int, seed uint64) *particles.System {
	t.Helper()
	sys, err := particles.New(particles.Options{N: n, Phi: 0.4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBlockCGSameOnBothPaths(t *testing.T) {
	const m = 16
	a := hydro.Build(sdSystem(t, 200, 3), hydro.Options{Phi: 0.4})
	b := multivec.New(a.N(), m)
	rng.New(4).FillNormal(b.Data)

	solve := func() (*multivec.MultiVec, solver.BlockStats) {
		x := multivec.New(a.N(), m)
		return x, solver.BlockCG(a, x, b, solver.Options{})
	}
	x, st := solve()
	var xRef *multivec.MultiVec
	var stRef solver.BlockStats
	multivec.WithoutSIMD(func() { xRef, stRef = solve() })

	if !st.Converged || st.Iterations == 0 {
		t.Fatalf("block solve did not run to convergence: %+v", st.Stats)
	}
	if st.Iterations != stRef.Iterations || st.MatMuls != stRef.MatMuls ||
		math.Float64bits(st.Residual) != math.Float64bits(stRef.Residual) {
		t.Fatalf("stats differ: SIMD %d iters residual %x, generic %d iters residual %x",
			st.Iterations, st.Residual, stRef.Iterations, stRef.Residual)
	}
	for j, res := range st.ColumnResiduals {
		if math.Float64bits(res) != math.Float64bits(stRef.ColumnResiduals[j]) {
			t.Fatalf("column %d residual %x with SIMD, %x without", j, res, stRef.ColumnResiduals[j])
		}
	}
	for i, v := range x.Data {
		if math.Float64bits(v) != math.Float64bits(xRef.Data[i]) {
			t.Fatalf("solution element %d = %x with SIMD, %x without", i, v, xRef.Data[i])
		}
	}
}

func TestMRHSChunkSameOnBothPaths(t *testing.T) {
	chunk := func() (checksum uint64, blockIters int) {
		conf := sd.NewConf(sdSystem(t, 200, 5), hydro.Options{Phi: 0.4}, 1)
		r := core.NewRunner(conf, core.Config{Dt: 2, M: 16, Seed: 6})
		if err := r.StepMRHS(16); err != nil {
			t.Fatal(err)
		}
		return r.Current().(*sd.Conf).Sys.Checksum(), r.BlockIters
	}
	sum, iters := chunk()
	var sumRef uint64
	var itersRef int
	multivec.WithoutSIMD(func() { sumRef, itersRef = chunk() })
	if iters == 0 {
		t.Fatal("chunk ran no block iterations")
	}
	if sum != sumRef || iters != itersRef {
		t.Fatalf("chunk differs: SIMD checksum %016x after %d block iterations, generic %016x after %d",
			sum, iters, sumRef, itersRef)
	}
}
