package hydro

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/particles"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestXADivergesAsGapCloses(t *testing.T) {
	// Squeeze resistance ~ 1/xi: halving the gap roughly doubles it.
	prev := 0.0
	for _, xi := range []float64{0.1, 0.05, 0.025, 0.0125} {
		v := XA(xi, 1)
		if v <= prev {
			t.Fatalf("XA(%v) = %v not increasing as gap closes", xi, v)
		}
		prev = v
	}
	r := XA(0.001, 1) / XA(0.002, 1)
	if r < 1.8 || r > 2.2 {
		t.Fatalf("XA ratio for halved gap = %v, want ~2 (1/xi leading term)", r)
	}
}

func TestYALogDivergence(t *testing.T) {
	// Shear resistance ~ log(1/xi): much weaker than squeeze.
	if YA(0.001, 1) >= XA(0.001, 1) {
		t.Fatal("YA must be weaker than XA near contact")
	}
	// log behavior: YA(xi/10) - YA(xi) ~ g2y*log(10), roughly
	// constant increments per decade.
	d1 := YA(0.001, 1) - YA(0.01, 1)
	d2 := YA(0.0001, 1) - YA(0.001, 1)
	if math.Abs(d1-d2)/d1 > 0.2 {
		t.Fatalf("YA decade increments %v vs %v, want near-equal (log divergence)", d1, d2)
	}
}

func TestResistanceFunctionsEqualSpheresKnownValues(t *testing.T) {
	// For beta=1: g1 = 2/8 = 0.25, g2 = 9/40 = 0.225,
	// g3 = 9/(42*8) = 0.0267857...; g2y = 20/120 = 1/6, and the g3y
	// polynomial 16-45+58-45+16 vanishes identically at beta=1.
	xi := 0.01
	l := math.Log(1 / xi)
	wantXA := 0.25/xi + 0.225*l + (9.0/336.0)*xi*l
	if got := XA(xi, 1); !almostEqual(got, wantXA, 1e-12) {
		t.Fatalf("XA(0.01, 1) = %v, want %v", got, wantXA)
	}
	wantYA := l / 6
	if got := YA(xi, 1); !almostEqual(got, wantYA, 1e-12) {
		t.Fatalf("YA(0.01, 1) = %v, want %v", got, wantYA)
	}
}

func TestXASymmetricUnderSwap(t *testing.T) {
	// Swapping the two spheres must leave the pair tensor invariant
	// once the a1-normalization is accounted for:
	// a1*XA(xi, a2/a1) == a2*XA(xi, a1/a2).
	xi := 0.02
	a1, a2 := 2.0, 5.0
	left := a1 * XA(xi, a2/a1)
	right := a2 * XA(xi, a1/a2)
	if !almostEqual(left, right, 1e-12) {
		t.Fatalf("XA not swap-consistent: %v vs %v", left, right)
	}
	leftY := a1 * YA(xi, a2/a1)
	rightY := a2 * YA(xi, a1/a2)
	if !almostEqual(leftY, rightY, 1e-12) {
		t.Fatalf("YA not swap-consistent: %v vs %v", leftY, rightY)
	}
}

func TestEffectiveViscosity(t *testing.T) {
	if EffectiveViscosity(0) != 1 {
		t.Fatal("eta_r(0) must be 1")
	}
	// Einstein limit: eta_r ~ 1 + 2.5*phi for small phi.
	phi := 0.01
	if got := EffectiveViscosity(phi); !almostEqual(got, 1+2.5*phi, 1e-2) {
		t.Fatalf("dilute limit violated: %v", got)
	}
	// Monotone increasing.
	prev := 0.0
	for _, phi := range []float64{0.1, 0.3, 0.5, 0.6} {
		v := EffectiveViscosity(phi)
		if v <= prev {
			t.Fatal("eta_r not increasing")
		}
		prev = v
	}
}

func TestEffectiveViscosityPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EffectiveViscosity(0.64)
}

func TestPairTensorSPD(t *testing.T) {
	d := blas.Vec3{0, 0, 1}
	a := PairTensor(2, 3, 0.01, d, Options{Phi: 0.3})
	if !a.IsSymmetric3(1e-12) {
		t.Fatal("pair tensor must be symmetric")
	}
	// Eigenvalues are scale*xa (once) and scale*ya (twice): both
	// positive well inside the cutoff.
	az := a.MulV(d)
	if az[2] <= 0 {
		t.Fatal("squeeze eigenvalue must be positive")
	}
	perp := blas.Vec3{1, 0, 0}
	ap := a.MulV(perp)
	if ap[0] <= 0 {
		t.Fatal("shear eigenvalue must be positive")
	}
	if az[2] <= ap[0] {
		t.Fatal("squeeze must dominate shear near contact")
	}
}

func TestPairTensorVanishesAtCutoff(t *testing.T) {
	opt := Options{Phi: 0.3, CutoffXi: 1}
	a := PairTensor(2, 2, 1.0, blas.Vec3{1, 0, 0}, opt)
	if !a.Zero3() {
		t.Fatalf("pair tensor at cutoff gap must vanish, got %v", a)
	}
}

func TestPairTensorGapFloor(t *testing.T) {
	// Below MinXi the tensor saturates rather than diverging.
	opt := Options{Phi: 0.3, MinXi: 1e-3}
	d := blas.Vec3{1, 0, 0}
	deep := PairTensor(2, 2, 1e-8, d, opt)
	atFloor := PairTensor(2, 2, 1e-3, d, opt)
	for i := range deep {
		if !almostEqual(deep[i], atFloor[i], 1e-12) {
			t.Fatal("gap floor not applied")
		}
	}
}

func buildSmall(t *testing.T, n int, phi float64, seed uint64) (*particles.System, Options) {
	t.Helper()
	sys, err := particles.New(particles.Options{N: n, Phi: phi, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys, Options{Phi: phi}
}

func TestBuildSymmetric(t *testing.T) {
	sys, opt := buildSmall(t, 120, 0.4, 1)
	r := Build(sys, opt)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if !r.IsSymmetric(1e-10) {
		t.Fatal("resistance matrix must be symmetric")
	}
}

func TestBuildSPD(t *testing.T) {
	if testing.Short() {
		t.Skip("dense eigenvalue iteration: serial, and slow under -race")
	}
	sys, opt := buildSmall(t, 60, 0.45, 2)
	r := Build(sys, opt)
	// Dense Cholesky must succeed: R = muF*I + (PSD sum).
	if _, err := blas.Cholesky(r.Dense()); err != nil {
		t.Fatalf("resistance matrix not SPD: %v", err)
	}
	// Spectrum floor: lambda_min >= min muF (pair terms are PSD).
	lo, _, err := blas.ExtremeEigSym(r.Dense())
	if err != nil {
		t.Fatal(err)
	}
	if floor := MinFarField(sys, opt); lo < floor*(1-1e-8) {
		t.Fatalf("lambda_min %v below far-field floor %v", lo, floor)
	}
}

func TestBuildDensityGrowsWithCutoff(t *testing.T) {
	// The paper built mat1/mat2/mat3 by varying the cutoff radius
	// (Table I): larger cutoffs must give denser matrices.
	sys, _ := buildSmall(t, 200, 0.4, 3)
	prev := 0.0
	for _, xc := range []float64{0.5, 1.5, 3} {
		r := Build(sys, Options{Phi: 0.4, CutoffXi: xc})
		bpr := r.BlocksPerRow()
		if bpr <= prev {
			t.Fatalf("blocks/row %v did not grow with cutoff %v", bpr, xc)
		}
		prev = bpr
	}
}

func TestBuildDensityGrowsWithPhi(t *testing.T) {
	var prev float64
	for _, phi := range []float64{0.1, 0.3, 0.5} {
		sys, opt := buildSmall(t, 200, phi, 4)
		r := Build(sys, opt)
		bpr := r.BlocksPerRow()
		if bpr <= prev {
			t.Fatalf("blocks/row %v did not grow with phi %v", bpr, phi)
		}
		prev = bpr
	}
}

func TestBuildPairActionReaction(t *testing.T) {
	// A rigid translation of all particles generates no net force:
	// R * (uniform velocity) = muF * velocity only (pair terms
	// resist relative motion exclusively).
	sys, opt := buildSmall(t, 80, 0.45, 5)
	r := Build(sys, opt)
	muf := FarFieldCoefficients(sys, opt)
	n := r.N()
	u := make([]float64, n)
	for i := 0; i < sys.N; i++ {
		u[3*i] = 1 // uniform x-velocity
	}
	f := make([]float64, n)
	r.MulVec(f, u)
	for i := 0; i < sys.N; i++ {
		if !almostEqual(f[3*i], muf[i], 1e-9) {
			t.Fatalf("particle %d force %v, want muF %v (pure drag)", i, f[3*i], muf[i])
		}
		if math.Abs(f[3*i+1]) > 1e-9*muf[i] || math.Abs(f[3*i+2]) > 1e-9*muf[i] {
			t.Fatal("rigid translation produced transverse force")
		}
	}
}

func TestRPYSelf(t *testing.T) {
	m := RPYSelf(2, 1)
	want := 1 / (6 * math.Pi * 2)
	if !almostEqual(m.At(0, 0), want, 1e-14) || m.At(0, 1) != 0 {
		t.Fatalf("RPYSelf = %v", m)
	}
}

func TestRPYPairFarField(t *testing.T) {
	// At large separation the tensor decays like 1/r and is
	// dominated by (I + dd)/8 pi mu r.
	d := blas.Vec3{1, 0, 0}
	m10 := RPYPair(1, 1, 10, 1, d)
	m20 := RPYPair(1, 1, 20, 1, d)
	ratio := m10.At(0, 0) / m20.At(0, 0)
	if math.Abs(ratio-2) > 0.05 {
		t.Fatalf("RPY axial decay ratio %v, want ~2 (1/r)", ratio)
	}
	if !m10.IsSymmetric3(1e-14) {
		t.Fatal("RPY tensor must be symmetric")
	}
}

func TestBuildRPYSymmetricSPD(t *testing.T) {
	if testing.Short() {
		t.Skip("dense eigenvalue iteration: serial, and slow under -race")
	}
	sys, _ := buildSmall(t, 50, 0.2, 6)
	m := BuildRPY(sys, 1, sys.Box/3)
	if !m.IsSymmetric(1e-10) {
		t.Fatal("RPY matrix must be symmetric")
	}
	lo, hi, err := blas.ExtremeEigSym(m.Dense())
	if err != nil {
		t.Fatal(err)
	}
	// Hard truncation of the 1/r tail can push a few eigenvalues
	// slightly negative (the full periodic M^inf needs Ewald
	// summation, which the paper also does not use in its sparse
	// approximation). Assert the spectrum is only mildly perturbed:
	// any negative part must be a small fraction of the largest
	// eigenvalue.
	if hi <= 0 {
		t.Fatalf("RPY spectrum collapsed: hi = %v", hi)
	}
	if lo < -0.1*hi {
		t.Fatalf("truncated RPY matrix has lambda_min %v vs lambda_max %v", lo, hi)
	}
}

func TestSearchCutoffCoversInteractions(t *testing.T) {
	sys, opt := buildSmall(t, 100, 0.3, 7)
	c := SearchCutoff(sys, opt)
	amax := sys.MaxRadius()
	want := 2 * amax * (1 + opt.WithDefaults().CutoffXi/2)
	if !almostEqual(c, want, 1e-14) {
		t.Fatalf("SearchCutoff = %v, want %v", c, want)
	}
}
