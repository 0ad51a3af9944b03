package rng

import (
	"math"
	"math/bits"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds collided %d times", same)
	}
}

func TestSubstreamIndependence(t *testing.T) {
	// Substreams with different ids must differ from each other and
	// from the base stream.
	s0 := Substream(7, 0)
	s1 := Substream(7, 1)
	collisions := 0
	for i := 0; i < 64; i++ {
		if s0.Uint64() == s1.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("substreams collided %d times", collisions)
	}
}

// normals returns n standard normal deviates from the substream
// (seed, id): the simulation's z_k, with id the step index k.
func normals(seed, id uint64, n int) []float64 {
	x := make([]float64, n)
	Substream(seed, id).FillNormal(x)
	return x
}

func TestSubstreamReproducible(t *testing.T) {
	x := normals(99, 5, 16)
	y := normals(99, 5, 16)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("substream normals not reproducible")
		}
	}
	z := normals(99, 6, 16)
	diff := false
	for i := range x {
		if x[i] != z[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different ids produced identical vectors")
	}
}

// TestResetIsSubstream: a Stream reset to (seed, id) draws what
// Substream(seed, id) does, whatever it drew before — a cached second
// Box-Muller deviate included, which an odd draw count leaves behind.
func TestResetIsSubstream(t *testing.T) {
	var s Stream
	for id := uint64(0); id < 4; id++ {
		s.Reset(99, id)
		x := make([]float64, 7)
		s.FillNormal(x)
		for i, want := range normals(99, id, 7) {
			if x[i] != want {
				t.Fatalf("id %d: normal %d = %v after Reset, %v from Substream", id, i, x[i], want)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	// Standard error is 1/sqrt(12n) ~ 0.00065; allow 5 sigma.
	if math.Abs(mean-0.5) > 0.0033 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(6)
	const n = 400000
	var sum, sum2, sum3, sum4 float64
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sum2 += v * v
		sum3 += v * v * v
		sum4 += v * v * v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	skew := sum3 / n
	kurt := sum4 / n
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v", variance)
	}
	if math.Abs(skew) > 0.03 {
		t.Fatalf("normal skewness = %v", skew)
	}
	if math.Abs(kurt-3) > 0.1 {
		t.Fatalf("normal kurtosis = %v, want 3", kurt)
	}
}

func TestNormalTails(t *testing.T) {
	// P(|Z| > 3) ~ 0.0027; check the generator actually produces
	// tail values at roughly the right rate.
	s := New(7)
	const n = 300000
	tail := 0
	for i := 0; i < n; i++ {
		if math.Abs(s.Normal()) > 3 {
			tail++
		}
	}
	rate := float64(tail) / n
	if rate < 0.0015 || rate > 0.0045 {
		t.Fatalf("3-sigma tail rate = %v, want ~0.0027", rate)
	}
}

func TestUint64BitBalance(t *testing.T) {
	s := New(8)
	counts := make([]int, 64)
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.Uint64()
		for v != 0 {
			b := bits.TrailingZeros64(v)
			counts[b]++
			v &= v - 1
		}
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.46 || frac > 0.54 {
			t.Fatalf("bit %d set fraction %v, want ~0.5", b, frac)
		}
	}
}

func TestFillNormalLength(t *testing.T) {
	s := New(9)
	x := make([]float64, 33)
	s.FillNormal(x)
	nonzero := 0
	for _, v := range x {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 30 {
		t.Fatal("FillNormal left entries unset")
	}
}

func TestNormalVectorCrossStepDecorrelation(t *testing.T) {
	// Consecutive step vectors should have near-zero sample
	// correlation.
	n := 10000
	x := normals(11, 1, n)
	y := normals(11, 2, n)
	var dot float64
	for i := range x {
		dot += x[i] * y[i]
	}
	corr := dot / float64(n)
	if math.Abs(corr) > 0.05 {
		t.Fatalf("cross-step correlation = %v", corr)
	}
}

// TestNormalMatchesSinCos: the deviates Normal draws with one Sincos
// call are bitwise the Box-Muller pair of separate Sin and Cos calls on
// the same uniforms, which every noise history so far was drawn with.
func TestNormalMatchesSinCos(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		s, u := Substream(seed, 3), Substream(seed, 3)
		for i := 0; i < 50000; i++ {
			u1 := u.Float64()
			if u1 == 0 {
				continue
			}
			u2 := u.Float64()
			r := math.Sqrt(-2 * math.Log(u1))
			theta := 2 * math.Pi * u2
			for k, want := range []float64{r * math.Cos(theta), r * math.Sin(theta)} {
				if got := s.Normal(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d draw %d.%d: %v, Sin/Cos pair gives %v", seed, i, k, got, want)
				}
			}
		}
	}
}
