package cluster

import (
	"testing"
	"time"
)

func TestBackoffScheduleTable(t *testing.T) {
	cases := []struct {
		name string
		b    Backoff
		// wantLen is the number of retries (MaxAttempts-1).
		wantLen int
		// maxWait is the cap no entry may exceed.
		maxWait time.Duration
		// minFirst bounds the first wait from below (Base*(1-Jitter)).
		minFirst time.Duration
	}{
		{
			name:     "defaults",
			b:        Backoff{Seed: 1},
			wantLen:  7,
			maxWait:  10 * time.Millisecond,
			minFirst: time.Duration(float64(200*time.Microsecond) * 0.8),
		},
		{
			name: "no jitter grows geometrically",
			b: Backoff{Base: time.Millisecond, Factor: 3, Max: time.Second,
				Jitter: -1, MaxAttempts: 4, Seed: 1},
			wantLen:  3,
			maxWait:  time.Second,
			minFirst: time.Millisecond,
		},
		{
			name: "tight cap clamps everything",
			b: Backoff{Base: 5 * time.Millisecond, Factor: 10, Max: 6 * time.Millisecond,
				Jitter: 0.5, MaxAttempts: 6, Seed: 7},
			wantLen:  5,
			maxWait:  6 * time.Millisecond,
			minFirst: 2500 * time.Microsecond,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			retries := tc.b.WithDefaults().MaxAttempts - 1
			if retries != tc.wantLen {
				t.Fatalf("%d retries, want %d", retries, tc.wantLen)
			}
			for a := 1; a <= retries; a++ {
				w := tc.b.Wait(3, a)
				if w > tc.maxWait {
					t.Errorf("wait %d = %v exceeds cap %v", a, w, tc.maxWait)
				}
				if w <= 0 {
					t.Errorf("wait %d = %v not positive", a, w)
				}
			}
			if w := tc.b.Wait(3, 1); w < tc.minFirst {
				t.Errorf("first wait %v below %v", w, tc.minFirst)
			}
		})
	}
}

// The un-jittered schedule must be non-decreasing up to the cap.
func TestBackoffMonotoneWithoutJitter(t *testing.T) {
	b := Backoff{Base: 100 * time.Microsecond, Factor: 2, Max: time.Millisecond,
		Jitter: -1, MaxAttempts: 8, Seed: 1}
	for a := 2; a < b.MaxAttempts; a++ {
		if w, prev := b.Wait(0, a), b.Wait(0, a-1); w < prev {
			t.Fatalf("wait decreased at attempt %d: %v < %v", a, w, prev)
		}
	}
	if w := b.Wait(0, b.MaxAttempts-1); w != time.Millisecond {
		t.Fatalf("tail %v did not reach the cap", w)
	}
}

// Jitter is deterministic in the seed: same seed, same schedule;
// different seeds or different message seqs must diverge somewhere.
func TestBackoffJitterDeterministicUnderSeed(t *testing.T) {
	mk := func(seed uint64) Backoff {
		return Backoff{Base: time.Millisecond, Factor: 2, Max: 100 * time.Millisecond,
			Jitter: 0.3, MaxAttempts: 8, Seed: seed}
	}
	a1, a2, b := mk(5), mk(5), mk(6)
	sameSeedSame := true
	crossSeedDiffer := false
	crossSeqDiffer := false
	for seq := int64(0); seq < 20; seq++ {
		for a := 1; a < a1.MaxAttempts; a++ {
			w := a1.Wait(seq, a)
			if w != a2.Wait(seq, a) {
				sameSeedSame = false
			}
			if w != b.Wait(seq, a) {
				crossSeedDiffer = true
			}
			if seq > 0 && w != a1.Wait(seq-1, a) {
				crossSeqDiffer = true
			}
		}
	}
	if !sameSeedSame {
		t.Error("same seed produced different schedules")
	}
	if !crossSeedDiffer {
		t.Error("different seeds produced identical schedules")
	}
	if !crossSeqDiffer {
		t.Error("different message seqs produced identical schedules")
	}
}

func TestBackoffWithDefaults(t *testing.T) {
	b := Backoff{}.WithDefaults()
	if b.Base <= 0 || b.Max <= 0 || b.Factor < 1 || b.MaxAttempts <= 0 || b.Deadline <= 0 {
		t.Fatalf("defaults incomplete: %+v", b)
	}
	if b.Jitter <= 0 || b.Jitter >= 1 {
		t.Fatalf("default jitter %v out of (0,1)", b.Jitter)
	}
}
