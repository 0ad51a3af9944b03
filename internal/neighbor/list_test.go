package neighbor

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// uniformList is a list over n equal spheres whose reach is cutoff:
// radius cutoff/2 and a zero gap cutoff, for which Gap < 0 is exactly
// r < cutoff.
func uniformList(box, cutoff, skin float64, n int) *List {
	radius := make([]float64, n)
	for i := range radius {
		radius[i] = cutoff / 2
	}
	return NewList(box, radius, 0, skin)
}

// listPairs copies a query's answer out of the list's buffer.
func listPairs(l *List, pos []blas.Vec3) []Pair {
	return slices.Clone(l.Pairs(pos))
}

// brutePairs is the set a list must report, from the criterion it
// replaces: the quadratic scan at the largest reach, kept by the gap.
func brutePairs(pos []blas.Vec3, box float64, radius []float64, xiCut float64) []Pair {
	amax := slices.Max(radius)
	var out []Pair
	for _, p := range PairsBrute(pos, box, 2*amax*(1+xiCut/2)) {
		if Gap(p.R, radius[p.I], radius[p.J]) < xiCut {
			out = append(out, p)
		}
	}
	return out
}

func TestListMatchesDirectSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box, cutoff := 12.0, 2.0
	pos := randPositions(rng, 300, box)
	l := uniformList(box, cutoff, 0.5, len(pos))
	got := listPairs(l, pos)
	want := Pairs(pos, box, cutoff)
	if !samePairs(got, want) {
		t.Fatalf("list pairs differ: %d vs %d", len(got), len(want))
	}
	if l.Rebuilds != 1 || l.Reuses != 0 {
		t.Fatalf("counters: %d rebuilds, %d reuses", l.Rebuilds, l.Reuses)
	}
}

func TestListReusedForSmallDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box, cutoff, skin := 12.0, 2.0, 0.6
	pos := randPositions(rng, 200, box)
	l := uniformList(box, cutoff, skin, len(pos))
	l.Pairs(pos)

	// Drift everything by far less than skin/2 and query repeatedly:
	// no rebuild, results still exact.
	for step := 0; step < 5; step++ {
		for i := range pos {
			pos[i] = Wrap(pos[i].Add(blas.Vec3{0.01, -0.01, 0.005}), box)
		}
		got := listPairs(l, pos)
		want := Pairs(pos, box, cutoff)
		if !samePairs(got, want) {
			t.Fatalf("step %d: reused list wrong", step)
		}
	}
	if l.Rebuilds != 1 {
		t.Fatalf("rebuilt %d times for sub-skin drift", l.Rebuilds)
	}
	if l.Reuses != 5 {
		t.Fatalf("reuses = %d, want 5", l.Reuses)
	}
}

func TestListRebuildsPastSkin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box, cutoff, skin := 12.0, 2.0, 0.4
	pos := randPositions(rng, 150, box)
	l := uniformList(box, cutoff, skin, len(pos))
	l.Pairs(pos)
	// Move one particle beyond skin/2.
	pos[7] = Wrap(pos[7].Add(blas.Vec3{skin, 0, 0}), box)
	got := listPairs(l, pos)
	want := Pairs(pos, box, cutoff)
	if !samePairs(got, want) {
		t.Fatal("post-rebuild pairs wrong")
	}
	if l.Rebuilds != 2 {
		t.Fatalf("rebuilds = %d, want 2", l.Rebuilds)
	}
}

// TestListExactOnPolydisperseWalks is the list's contract: for spheres
// of different radii random-walking with steps at the scale of skin/2,
// so that queries fall on both sides of the drift rule, every answer —
// from a fresh list, a reused one or a rebuilt one, from the quadratic
// scan or the cell search — is exactly the brute-force set
// {Gap < xiCut}, in (I, J) order, with the same geometry bits.
func TestListExactOnPolydisperseWalks(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n          int
		box, xiCut float64
		amin, amax float64
	}{
		{"brute scan, wide radii", 150, 18, 1, 0.3, 2.5},
		{"cell search, wide radii", 400, 40, 0.5, 0.3, 2},
		{"cell search, contact only", 300, 30, 0, 0.5, 1.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)))
			radius := make([]float64, tc.n)
			for i := range radius {
				radius[i] = tc.amin + (tc.amax-tc.amin)*rng.Float64()*rng.Float64()
			}
			pos := randPositions(rng, tc.n, tc.box)
			skin := 0.1 * 2 * slices.Max(radius) * (1 + tc.xiCut/2)
			l := NewList(tc.box, radius, tc.xiCut, skin)
			if cells := int(tc.box / (l.maxReach + l.skin)); (cells >= 3) != (tc.name[0] == 'c') {
				t.Fatalf("geometry gives %d cells per edge", cells)
			}
			// Every step moves each particle by up to 0.15 skin per
			// axis, so a particle crosses skin/2 after a few steps:
			// the walk keeps ending reuse streaks and starting them.
			for step := 0; step < 40; step++ {
				got := l.Pairs(pos)
				want := brutePairs(pos, tc.box, radius, tc.xiCut)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d (%d rebuilds, %d reuses): %d pairs, brute force %d",
						step, l.Rebuilds, l.Reuses, len(got), len(want))
				}
				if fresh := NewList(tc.box, radius, tc.xiCut, skin).Pairs(pos); !slices.Equal(got, fresh) {
					t.Fatalf("step %d: answer depends on the list's history", step)
				}
				for i := range pos {
					d := blas.Vec3{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() - 0.5}
					pos[i] = pos[i].Add(d.Scale(0.3 * l.skin))
				}
			}
			if l.Rebuilds < 3 || l.Reuses < 3 {
				t.Fatalf("walk exercised %d rebuilds and %d reuses; want several of each", l.Rebuilds, l.Reuses)
			}
		})
	}
}

// TestListSkinBoundary puts one particle's drift just inside and just
// outside skin/2: inside, the candidates are reused and must still
// hold a pair that closed in by almost the whole skin; at the limit,
// the list rebuilds.
func TestListSkinBoundary(t *testing.T) {
	const box, skin = 20.0, 0.4
	radius := []float64{1, 0.5, 0.7}
	// Pair (0,1) has reach 1.5*1.25 = 1.875 and starts just inside
	// reach+skin; pair (0,2) sits far away.
	start := []blas.Vec3{{5, 5, 5}, {5 + 1.875 + 0.99*skin, 5, 5}, {12, 12, 12}}
	for _, tc := range []struct {
		drift   float64
		rebuild bool
	}{
		{0.4999 * skin, false},
		{0.5 * skin, true},
	} {
		l := NewList(box, radius, 0.5, skin)
		if got := l.Pairs(start); len(got) != 0 {
			t.Fatalf("pairs before the approach: %v", got)
		}
		pos := slices.Clone(start)
		pos[0][0] += tc.drift
		pos[1][0] -= tc.drift
		got := l.Pairs(pos)
		if want := brutePairs(pos, box, radius, 0.5); !slices.Equal(got, want) || len(got) != 1 {
			t.Fatalf("drift %v: got %v, want %v", tc.drift, got, want)
		}
		if rebuilt := l.Rebuilds == 2; rebuilt != tc.rebuild {
			t.Fatalf("drift %v: %d rebuilds, %d reuses", tc.drift, l.Rebuilds, l.Reuses)
		}
	}
}

// TestListReachIsPerPair: a small sphere next to a large one is
// listed only inside their own reach, not inside the reach of two
// large ones.
func TestListReachIsPerPair(t *testing.T) {
	radius := []float64{3, 3, 0.5, 0.5}
	pos := []blas.Vec3{{2, 10, 10}, {9, 10, 10}, {2, 10, 15.5}, {9, 10, 14.5}}
	l := NewList(40, radius, 1, 0.5)
	got := l.Pairs(pos)
	// (0,1): r = 7 < 9. (0,2): r = 5.5 >= 5.25. (1,3): r = 4.5 < 5.25.
	want := [][2]int{{0, 1}, {1, 3}}
	if len(got) != len(want) {
		t.Fatalf("pairs %v", got)
	}
	for k, p := range got {
		if [2]int{p.I, p.J} != want[k] {
			t.Fatalf("pairs %v, want %v", got, want)
		}
	}
	if len(l.candidates) != 3 { // (0,2) is within reach+skin, (2,3) and the rest are not
		t.Fatalf("%d candidates, want 3", len(l.candidates))
	}
}

func TestListQueryDoesNotAllocate(t *testing.T) {
	if parallel.Threads() != 1 {
		t.Skip("a parallel dispatch allocates its job")
	}
	rng := rand.New(rand.NewSource(6))
	pos := randPositions(rng, 500, 15)
	l := uniformList(15, 2, 0.5, len(pos))
	l.Pairs(pos)
	if n := testing.AllocsPerRun(20, func() { l.Pairs(pos) }); n != 0 {
		t.Fatalf("a reused list allocated %v times per query", n)
	}
}

func TestListRejectsWrongCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a position count that differs from the radii")
		}
	}()
	uniformList(10, 2, 0.5, 50).Pairs(make([]blas.Vec3, 60))
}

// TestListSlotsNameCandidates: Slots pairs every reported pair with its
// candidate, and a pair keeps its slot for as long as the list is not
// rebuilt — what a cache of per-pair constants beside the list relies
// on.
func TestListSlotsNameCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	radius := make([]float64, 300)
	for i := range radius {
		radius[i] = 0.4 + rng.Float64()
	}
	pos := randPositions(rng, len(radius), 14)
	l := NewList(14, radius, 0.5, 0.4)
	slotOf := map[[2]int]int32{}
	for step := 0; step < 30; step++ {
		rebuilds := l.Rebuilds
		pairs := l.Pairs(pos)
		slots, candidates := l.Slots()
		if len(slots) != len(pairs) {
			t.Fatalf("step %d: %d slots for %d pairs", step, len(slots), len(pairs))
		}
		if l.Rebuilds != rebuilds {
			clear(slotOf)
		}
		for k, p := range pairs {
			s := slots[k]
			if int(s) >= candidates || l.candidates[s] != [2]int32{int32(p.I), int32(p.J)} {
				t.Fatalf("step %d: pair (%d, %d) reported in slot %d", step, p.I, p.J, s)
			}
			if was, ok := slotOf[[2]int{p.I, p.J}]; ok && was != s {
				t.Fatalf("step %d: pair (%d, %d) moved from slot %d to %d without a rebuild", step, p.I, p.J, was, s)
			}
			slotOf[[2]int{p.I, p.J}] = s
		}
		for i := range pos {
			d := blas.Vec3{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() - 0.5}
			pos[i] = pos[i].Add(d.Scale(0.15 * l.skin))
		}
	}
	if l.Rebuilds < 2 || l.Reuses < 5 {
		t.Fatalf("walk exercised %d rebuilds and %d reuses; want both", l.Rebuilds, l.Reuses)
	}
}
