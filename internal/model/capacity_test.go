package model

import "testing"

func TestCapacityKRegimes(t *testing.T) {
	const perVec, cache = 450_000, 2 << 20
	k := CapacityK(3, 60, perVec, cache)
	// Resident: exactly kbase.
	if got := k(1); got != 3 {
		t.Fatalf("resident k(1) = %v, want 3", got)
	}
	if got := k(4); got != 3 {
		t.Fatalf("resident k(4) = %v, want kbase while W <= C", got)
	}
	// Overflowing: strictly increasing in m, bounded by kmiss.
	prev := k(4)
	for _, m := range []int{8, 16, 32, 64} {
		got := k(m)
		if got <= prev {
			t.Fatalf("k(%d) = %v not increasing past capacity (prev %v)", m, got, prev)
		}
		if got >= 60 {
			t.Fatalf("k(%d) = %v reached kmiss ceiling", m, got)
		}
		prev = got
	}
	// Asymptote: k(m) -> kmiss as the resident fraction vanishes.
	if got := k(1 << 20); got < 59.9 {
		t.Fatalf("k(huge) = %v, want ~kmiss", got)
	}
}
