package neighbor

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blas"
)

func randPositions(rng *rand.Rand, n int, box float64) []blas.Vec3 {
	pos := make([]blas.Vec3, n)
	for i := range pos {
		pos[i] = blas.Vec3{rng.Float64() * box, rng.Float64() * box, rng.Float64() * box}
	}
	return pos
}

func sortPairs(pairs []Pair) {
	slices.SortFunc(pairs, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
}

func samePairs(a, b []Pair) bool {
	sortPairs(a)
	sortPairs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].I != b[i].I || a[i].J != b[i].J {
			return false
		}
		if math.Abs(a[i].R-b[i].R) > 1e-12 {
			return false
		}
	}
	return true
}

func TestMinImage(t *testing.T) {
	d := MinImage(blas.Vec3{9, -9, 0.5}, 10)
	want := blas.Vec3{-1, 1, 0.5}
	for c := 0; c < 3; c++ {
		if math.Abs(d[c]-want[c]) > 1e-14 {
			t.Fatalf("MinImage = %v, want %v", d, want)
		}
	}
}

func TestWrap(t *testing.T) {
	p := Wrap(blas.Vec3{-0.5, 10.5, 3}, 10)
	want := blas.Vec3{9.5, 0.5, 3}
	for c := 0; c < 3; c++ {
		if math.Abs(p[c]-want[c]) > 1e-14 {
			t.Fatalf("Wrap = %v, want %v", p, want)
		}
	}
}

func TestCellListMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(200)
		box := 5 + rng.Float64()*15
		cutoff := 0.5 + rng.Float64()*3
		pos := randPositions(rng, n, box)
		cl := Pairs(pos, box, cutoff)
		bf := PairsBrute(pos, box, cutoff)
		if !samePairs(cl, bf) {
			t.Fatalf("trial %d (n=%d box=%v cutoff=%v): cell list %d pairs, brute %d",
				trial, n, box, cutoff, len(cl), len(bf))
		}
	}
}

func TestSmallBoxFallback(t *testing.T) {
	// Box smaller than 3 cutoffs: must fall back to brute force and
	// still be correct.
	rng := rand.New(rand.NewSource(2))
	pos := randPositions(rng, 40, 4)
	cl := Pairs(pos, 4, 2.5)
	bf := PairsBrute(pos, 4, 2.5)
	if !samePairs(cl, bf) {
		t.Fatal("small-box fallback differs from brute force")
	}
}

func TestPairsAcrossBoundary(t *testing.T) {
	// Two particles on opposite faces are neighbors through the
	// boundary.
	pos := []blas.Vec3{{0.1, 5, 5}, {9.9, 5, 5}}
	pairs := Pairs(pos, 10, 1)
	if len(pairs) != 1 {
		t.Fatalf("want 1 boundary pair, got %d", len(pairs))
	}
	p := pairs[0]
	if p.I != 0 || p.J != 1 {
		t.Fatalf("pair indices (%d,%d)", p.I, p.J)
	}
	if math.Abs(p.R-0.2) > 1e-12 {
		t.Fatalf("boundary distance %v, want 0.2", p.R)
	}
	// Displacement points from 0 to 1 through the boundary.
	if math.Abs(p.D[0]+0.2) > 1e-12 {
		t.Fatalf("boundary displacement %v", p.D)
	}
}

func TestUnwrappedPositionsAccepted(t *testing.T) {
	// Positions outside the primary box must give identical pairs to
	// their wrapped images.
	rng := rand.New(rand.NewSource(3))
	box := 10.0
	pos := randPositions(rng, 60, box)
	shifted := make([]blas.Vec3, len(pos))
	for i, p := range pos {
		shifted[i] = p.Add(blas.Vec3{3 * box, -2 * box, box})
	}
	a := Pairs(pos, box, 2)
	b := Pairs(shifted, box, 2)
	if !samePairs(a, b) {
		t.Fatal("wrapping changed the pair set")
	}
}

func TestNoSelfOrDuplicatePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pos := randPositions(rng, 300, 12)
	pairs := Pairs(pos, 12, 3)
	seen := make(map[[2]int]bool)
	for _, p := range pairs {
		if p.I >= p.J {
			t.Fatalf("pair not ordered: (%d,%d)", p.I, p.J)
		}
		k := [2]int{p.I, p.J}
		if seen[k] {
			t.Fatalf("duplicate pair (%d,%d)", p.I, p.J)
		}
		seen[k] = true
	}
}

func TestCutoffRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pos := randPositions(rng, 200, 10)
	cutoff := 2.0
	for _, p := range Pairs(pos, 10, cutoff) {
		if p.R >= cutoff {
			t.Fatalf("pair (%d,%d) at distance %v >= cutoff", p.I, p.J, p.R)
		}
		// R must match the displacement length.
		if math.Abs(p.R-p.D.Norm()) > 1e-12 {
			t.Fatal("pair distance inconsistent with displacement")
		}
	}
}

func TestDensityScaling(t *testing.T) {
	// Pair count should grow with cutoff roughly as cutoff^3 for a
	// uniform gas; sanity-check monotonicity.
	rng := rand.New(rand.NewSource(6))
	pos := randPositions(rng, 500, 20)
	prev := -1
	for _, cutoff := range []float64{1, 2, 4} {
		n := len(Pairs(pos, 20, cutoff))
		if n <= prev {
			t.Fatalf("pair count not growing with cutoff: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if got := Pairs(nil, 10, 1); len(got) != 0 {
		t.Fatal("no particles must give no pairs")
	}
	if got := Pairs([]blas.Vec3{{1, 1, 1}}, 10, 1); len(got) != 0 {
		t.Fatal("single particle must give no pairs")
	}
}

func BenchmarkCellList(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pos := randPositions(rng, 10000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pairs(pos, 50, 2)
	}
}
