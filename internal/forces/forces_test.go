package forces

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/particles"
)

// twoParticleSystem places two unit spheres at the given separation
// along x in a large box.
func twoParticleSystem(sep float64) *particles.System {
	return &particles.System{
		N:      2,
		Box:    100,
		Pos:    []blas.Vec3{{10, 10, 10}, {10 + sep, 10, 10}},
		Radius: []float64{1, 1},
	}
}

func TestHarmonicRestLengthNoForce(t *testing.T) {
	sys := twoParticleSystem(2)
	h := &Harmonic{Bonds: []Bond{{I: 0, J: 1, R0: 2, K: 5}}}
	f := h.Force(sys)
	for i, v := range f {
		if v != 0 {
			t.Fatalf("force[%d] = %v at rest length", i, v)
		}
	}
	if h.Energy(sys) != 0 {
		t.Fatal("energy at rest length must be zero")
	}
}

func TestHarmonicStretchedPullsTogether(t *testing.T) {
	sys := twoParticleSystem(3) // stretched by 1
	h := &Harmonic{Bonds: []Bond{{I: 0, J: 1, R0: 2, K: 5}}}
	f := h.Force(sys)
	// Particle 0 pulled toward +x with magnitude K*(r-R0) = 5.
	if math.Abs(f[0]-5) > 1e-12 {
		t.Fatalf("f0x = %v, want 5", f[0])
	}
	// Newton's third law.
	if math.Abs(f[3]+5) > 1e-12 {
		t.Fatalf("f1x = %v, want -5", f[3])
	}
	if h.Energy(sys) != 2.5 {
		t.Fatalf("energy = %v, want 2.5", h.Energy(sys))
	}
}

func TestHarmonicCompressedPushesApart(t *testing.T) {
	sys := twoParticleSystem(1) // compressed by 1
	h := &Harmonic{Bonds: []Bond{{I: 0, J: 1, R0: 2, K: 4}}}
	f := h.Force(sys)
	if f[0] >= 0 {
		t.Fatalf("compressed bond must push particle 0 toward -x: %v", f[0])
	}
}

func TestHarmonicNetForceZero(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 20, Phi: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 10)
	for i := range ids {
		ids[i] = i
	}
	h := Chain(ids, 50, 2)
	f := h.Force(sys)
	var net blas.Vec3
	for i := 0; i < sys.N; i++ {
		net[0] += f[3*i]
		net[1] += f[3*i+1]
		net[2] += f[3*i+2]
	}
	if net.Norm() > 1e-9 {
		t.Fatalf("net bonded force %v, want 0", net)
	}
}

func TestHarmonicPeriodicBond(t *testing.T) {
	// A bond across the periodic boundary must use the minimum
	// image: particles at x=1 and x=99 in a box of 100 are 2 apart.
	sys := &particles.System{
		N:      2,
		Box:    100,
		Pos:    []blas.Vec3{{1, 50, 50}, {99, 50, 50}},
		Radius: []float64{1, 1},
	}
	h := &Harmonic{Bonds: []Bond{{I: 0, J: 1, R0: 2, K: 3}}}
	f := h.Force(sys)
	for i, v := range f {
		if v != 0 {
			t.Fatalf("periodic bond at rest produced force[%d] = %v", i, v)
		}
	}
}

func TestChainConstruction(t *testing.T) {
	h := Chain([]int{4, 7, 9}, 1.5, 2)
	if len(h.Bonds) != 2 {
		t.Fatalf("bonds = %d", len(h.Bonds))
	}
	if h.Bonds[0] != (Bond{I: 4, J: 7, R0: 1.5, K: 2}) {
		t.Fatalf("bond 0 = %+v", h.Bonds[0])
	}
}

func TestForceIsNegativeEnergyGradient(t *testing.T) {
	// Numerical gradient check: F = -dE/dr.
	sys := twoParticleSystem(2.7)
	h := &Harmonic{Bonds: []Bond{{I: 0, J: 1, R0: 2, K: 3.5}}}
	f := h.Force(sys)
	const eps = 1e-6
	for c := 0; c < 3; c++ {
		orig := sys.Pos[0][c]
		sys.Pos[0][c] = orig + eps
		ep := h.Energy(sys)
		sys.Pos[0][c] = orig - eps
		em := h.Energy(sys)
		sys.Pos[0][c] = orig
		grad := (ep - em) / (2 * eps)
		if math.Abs(f[c]+grad) > 1e-5*(1+math.Abs(grad)) {
			t.Fatalf("component %d: force %v vs -grad %v", c, f[c], -grad)
		}
	}
}

func TestEndToEnd(t *testing.T) {
	sys := &particles.System{
		N:   3,
		Box: 100,
		Pos: []blas.Vec3{{1, 1, 1}, {4, 1, 1}, {4, 6, 1}},
	}
	e := EndToEnd(sys, []int{0, 1, 2})
	if e != (blas.Vec3{3, 5, 0}) {
		t.Fatalf("EndToEnd = %v", e)
	}
}

func TestInvalidBondPanics(t *testing.T) {
	sys := twoParticleSystem(2)
	h := &Harmonic{Bonds: []Bond{{I: 0, J: 5, R0: 1, K: 1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range bond")
		}
	}()
	h.Force(sys)
}
