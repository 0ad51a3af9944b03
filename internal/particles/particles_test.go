package particles

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

func TestTableIVFractionsSumToOne(t *testing.T) {
	var sum float64
	for _, rf := range EColiRadii {
		if rf.Radius <= 0 || rf.Fraction <= 0 {
			t.Fatalf("bad table row %+v", rf)
		}
		sum += rf.Fraction
	}
	if math.Abs(sum-1) > 0.001 {
		t.Fatalf("Table IV fractions sum to %v, want 1", sum)
	}
}

func TestSampleRadiiHistogram(t *testing.T) {
	s := rng.New(1)
	n := 20000
	radii := SampleRadii(s, n)
	if len(radii) != n {
		t.Fatalf("got %d radii", len(radii))
	}
	counts := make(map[float64]int)
	for _, r := range radii {
		counts[r]++
	}
	for _, rf := range EColiRadii {
		got := float64(counts[rf.Radius]) / float64(n)
		if math.Abs(got-rf.Fraction) > 0.01 {
			t.Fatalf("radius %v fraction %v, want %v", rf.Radius, got, rf.Fraction)
		}
	}
}

func TestSampleRadiiOnlyTableValues(t *testing.T) {
	valid := make(map[float64]bool)
	for _, rf := range EColiRadii {
		valid[rf.Radius] = true
	}
	for _, r := range SampleRadii(rng.New(2), 500) {
		if !valid[r] {
			t.Fatalf("sampled radius %v not in Table IV", r)
		}
	}
}

func TestNewSystemOverlapFree(t *testing.T) {
	for _, phi := range []float64{0.1, 0.3, 0.5} {
		sys, err := New(Options{N: 300, Phi: phi, Seed: 3})
		if err != nil {
			t.Fatalf("phi=%v: %v", phi, err)
		}
		if ov := sys.MaxOverlap(); ov > 0 {
			t.Fatalf("phi=%v: packing has overlap %v", phi, ov)
		}
	}
}

func TestNewSystemVolumeFraction(t *testing.T) {
	sys, err := New(Options{N: 400, Phi: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.VolumeFraction(); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("volume fraction %v, want 0.3 (box sized exactly)", got)
	}
}

func TestNewSystemDeterministic(t *testing.T) {
	a, err := New(Options{N: 100, Phi: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{N: 100, Phi: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] || a.Radius[i] != b.Radius[i] {
			t.Fatal("same seed produced different systems")
		}
	}
	c, err := New(Options{N: 100, Phi: 0.2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Pos {
		if a.Pos[i] != c.Pos[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical systems")
	}
}

func TestMonodisperse(t *testing.T) {
	sys, err := New(Options{N: 50, Phi: 0.2, Seed: 7, MonodisperseRadius: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Radius {
		if r != 10 {
			t.Fatalf("radius %v, want 10", r)
		}
	}
	if ov := sys.MaxOverlap(); ov > 0 {
		t.Fatalf("overlap %v", ov)
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := New(Options{N: 0, Phi: 0.3}); err == nil {
		t.Fatal("N=0 must fail")
	}
	if _, err := New(Options{N: 10, Phi: 0}); err == nil {
		t.Fatal("Phi=0 must fail")
	}
	if _, err := New(Options{N: 10, Phi: 0.9}); err == nil {
		t.Fatal("Phi=0.9 must fail")
	}
}

func TestImpossiblePackingErrors(t *testing.T) {
	// Starve the relaxer: dense packing with a single sweep allowed.
	_, err := New(Options{N: 200, Phi: 0.5, Seed: 8, MaxRelaxSweeps: 1})
	if err == nil {
		t.Fatal("expected relaxation failure with 1 sweep at phi=0.5")
	}
}

func TestMinMaxRadius(t *testing.T) {
	sys, err := New(Options{N: 2000, Phi: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sys.MaxRadius() != 115.24 {
		t.Fatalf("MaxRadius %v", sys.MaxRadius())
	}
	if m := slices.Min(sys.Radius); m != 21.42 {
		t.Fatalf("smallest radius %v", m)
	}
}

func TestDisplaceWrapsAndMoves(t *testing.T) {
	sys, err := New(Options{N: 20, Phi: 0.1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, 3*sys.N)
	for i := range u {
		u[i] = 1
	}
	before := sys.Clone()
	sys.DisplacedFrom(sys, u, 2.5)
	for i := 0; i < sys.N; i++ {
		for c := 0; c < 3; c++ {
			if sys.Pos[i][c] < 0 || sys.Pos[i][c] >= sys.Box {
				t.Fatal("DisplacedFrom left position outside box")
			}
		}
		moved := sys.Pos[i].Sub(before.Pos[i])
		// Either moved by 2.5 per axis or wrapped by the box.
		for c := 0; c < 3; c++ {
			d := math.Mod(moved[c]+10*sys.Box, sys.Box)
			if math.Abs(d-2.5) > 1e-9 && math.Abs(d-2.5+sys.Box) > 1e-9 {
				t.Fatalf("axis %d moved %v, want 2.5 mod box", c, d)
			}
		}
	}
}

func TestDisplacedFromLeavesBase(t *testing.T) {
	base, err := New(Options{N: 15, Phi: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := base.Clone()
	half := base.Clone()
	u := make([]float64, 3*base.N)
	for i := range u {
		u[i] = float64(i % 3)
	}
	half.DisplacedFrom(base, u, 0.5)
	for i := range base.Pos {
		if base.Pos[i] != snapshot.Pos[i] {
			t.Fatal("DisplacedFrom modified the base system")
		}
	}
	// Zero velocity reproduces base exactly.
	zero := make([]float64, 3*base.N)
	half.DisplacedFrom(base, zero, 0.5)
	for i := range base.Pos {
		if half.Pos[i] != base.Pos[i] {
			t.Fatal("zero displacement changed positions")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	sys, err := New(Options{N: 10, Phi: 0.1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Clone()
	c.Pos[0][0] += 1
	c.Radius[0] += 1
	if sys.Pos[0][0] == c.Pos[0][0] || sys.Radius[0] == c.Radius[0] {
		t.Fatal("Clone shares storage")
	}
}
