package repro_test

import (
	"testing"

	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/solver"
)

// TestBenchObsSnapshot exercises the instrumented GSPMV and block-CG
// paths on the shared fixture and checks that the kernel and solver
// counters advanced.
func TestBenchObsSnapshot(t *testing.T) {
	fixOnce.Do(buildFixtures)
	a := fixMat

	for _, m := range []int{1, 4, 8} {
		x := multivec.New(a.N(), m)
		rng.New(uint64(10 + m)).FillNormal(x.Data)
		y := multivec.New(a.N(), m)
		a.Mul(y, x)
	}
	b := multivec.New(a.N(), 4)
	rng.New(3).FillNormal(b.Data)
	x := multivec.New(a.N(), 4)
	st := solver.BlockCG(a, x, b, solver.Options{Tol: 1e-6})
	if !st.Converged {
		t.Fatalf("fixture block solve did not converge (residual %.2e)", st.Residual)
	}

	snap := obs.Default.Snapshot()
	if snap.Counters[obs.Label("bcrs_mul_calls_total", "m", "4")] == 0 {
		t.Fatal("bcrs_mul_calls_total{m=\"4\"} did not advance")
	}
	if snap.Counters["solver_blockcg_solves_total"] == 0 {
		t.Fatal("solver_blockcg_solves_total did not advance")
	}
}
