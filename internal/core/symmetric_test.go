package core

import (
	"math"
	"testing"
)

// TestSymmetricStepMatchesGeneral runs the same seeded trajectory with
// and without half-storage multiplies. The symmetric operator applies
// the identical linear map through a different floating-point order
// (and the symmetric family's FMA DAG), so trajectories agree to
// solver tolerance, not bitwise — the point is that Config.Symmetric
// changes the kernels, never the physics.
func TestSymmetricStepMatchesGeneral(t *testing.T) {
	mk := func(sym bool) *Runner {
		return NewRunner(newToy(15, 10), Config{Dt: 0.05, M: 4, Seed: 11, Tol: 1e-12, Symmetric: sym})
	}
	for _, alg := range []struct {
		name string
		run  func(r *Runner) error
	}{
		{"original", func(r *Runner) error { return r.RunOriginal(6) }},
		{"mrhs", func(r *Runner) error { return r.RunMRHS(6) }},
	} {
		g, s := mk(false), mk(true)
		if err := alg.run(g); err != nil {
			t.Fatalf("%s general: %v", alg.name, err)
		}
		if err := alg.run(s); err != nil {
			t.Fatalf("%s symmetric: %v", alg.name, err)
		}
		sg := g.Current().(*toyConfig).state
		ss := s.Current().(*toyConfig).state
		for i := range sg {
			if math.Abs(sg[i]-ss[i]) > 1e-6*(1+math.Abs(sg[i])) {
				t.Fatalf("%s: symmetric trajectory diverged at %d: %v vs %v",
					alg.name, i, sg[i], ss[i])
			}
		}
	}
}

// TestSymmetricStepDeterministic pins reproducibility: two symmetric
// runs with the same seed and thread count must agree bitwise, the
// same guarantee the general stepper gives.
func TestSymmetricStepDeterministic(t *testing.T) {
	mk := func() *Runner {
		return NewRunner(newToy(12, 5), Config{Dt: 0.05, M: 4, Seed: 3, Tol: 1e-10, Symmetric: true})
	}
	a, b := mk(), mk()
	if err := a.RunMRHS(5); err != nil {
		t.Fatal(err)
	}
	if err := b.RunMRHS(5); err != nil {
		t.Fatal(err)
	}
	sa := a.Current().(*toyConfig).state
	sb := b.Current().(*toyConfig).state
	for i := range sa {
		if math.Float64bits(sa[i]) != math.Float64bits(sb[i]) {
			t.Fatalf("symmetric MRHS run not reproducible at %d: %v vs %v", i, sa[i], sb[i])
		}
	}
}
