package stats

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

func TestMSDUniformMotion(t *testing.T) {
	// Every particle moving at unit speed along x: MSD after k steps
	// of size dt is (k*dt)^2.
	n, dt := 10, 0.5
	m := NewMSD(n, dt)
	u := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		u[3*i] = 1
	}
	for k := 0; k < 4; k++ {
		m.Observe(k, u, dt)
	}
	for k, got := range m.Curve {
		want := math.Pow(float64(k+1)*dt, 2)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("MSD[%d] = %v, want %v", k, got, want)
		}
	}
	if len(m.Curve) != 4 {
		t.Fatalf("Steps = %d", len(m.Curve))
	}
}

func TestMSDDiffusionCoefficient(t *testing.T) {
	// Brownian steps with variance 2*D*dt per axis: the fitted D
	// must match within statistical error.
	const (
		n    = 2000
		dt   = 1.0
		want = 0.25
	)
	m := NewMSD(n, dt)
	s := rng.New(4)
	sigma := math.Sqrt(2 * want * dt)
	u := make([]float64, 3*n)
	for k := 0; k < 40; k++ {
		for i := range u {
			u[i] = sigma * s.Normal() / dt // displacement sigma per step
		}
		m.Observe(k, u, dt)
	}
	got := m.DiffusionCoefficient()
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("D = %v, want ~%v", got, want)
	}
}

func TestMSDEmpty(t *testing.T) {
	m := NewMSD(5, 1)
	if m.DiffusionCoefficient() != 0 {
		t.Fatal("empty MSD must give D=0")
	}
}

func TestMSDLengthMismatchDropped(t *testing.T) {
	n, dt := 4, 0.5
	m := NewMSD(n, dt)
	u := make([]float64, 3*n)
	for i := range u {
		u[i] = 1
	}
	m.Observe(0, u, dt)
	before := obs.Default.Counter("stats_msd_length_mismatch_total").Value()
	m.Observe(1, u[:3*n-3], dt) // wrong length: dropped, not a panic
	if m.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", m.Dropped)
	}
	if got := obs.Default.Counter("stats_msd_length_mismatch_total").Value(); got != before+1 {
		t.Fatalf("mismatch counter = %d, want %d", got, before+1)
	}
	if len(m.Curve) != 1 {
		t.Fatalf("Steps = %d, want 1 (bad sample must not extend the curve)", len(m.Curve))
	}
	m.Observe(2, u, dt) // recovery: correct samples still accumulate
	if len(m.Curve) != 2 {
		t.Fatalf("Steps = %d after recovery, want 2", len(m.Curve))
	}
}
