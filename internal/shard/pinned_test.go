package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/multivec"
	"repro/internal/partition"
)

// pinnedRounds is the number of multiplies each digest covers — enough
// for the chaos table's crash:node=1,at=2 rule to fire mid-sequence.
const pinnedRounds = 3

// pinnedDigests are FNV-64a digests of pinnedRounds consecutive
// Fleet.Mul outputs on bcrs.Random{NB: 150, BlocksPerRow: 6, Seed: 5},
// keyed "p/m", recorded at the commit before the fleet was rebuilt on
// top of cluster.Cluster (its own persistent-worker exchange step
// still in place). The rest of the suite proves p=1 ≡ matrix and p>1
// run-to-run stable; this table proves p>1 ≡ that parent.
var pinnedDigests = map[string]uint64{
	"2/1": 0x0be78e0c08e60c23, "2/5": 0x6620e621a8ed5c45, "2/32": 0x4e43b54c5dff59cc,
	"3/1": 0x89f2977bc67fdadf, "3/5": 0x1cfc2094ea0bf467, "3/32": 0xd3c60f3072872500,
	"4/1": 0x3bf9abb6ec29dc44, "4/5": 0x9242326aa80eff34, "4/32": 0x31bb591f51d75d85,
}

func mulDigest(op interface {
	Mul(y, x *multivec.MultiVec)
}, n, m int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for r := 0; r < pinnedRounds; r++ {
		x := randomMV(n, m, uint64(900+10*m+r))
		y := multivec.New(n, m)
		op.Mul(y, x)
		for _, v := range y.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func forPinned(t *testing.T, fn func(t *testing.T, key string, p, m int)) {
	for _, p := range []int{2, 3, 4} {
		for _, m := range []int{1, 5, 32} {
			key := fmt.Sprintf("%d/%d", p, m)
			t.Run(key, func(t *testing.T) { fn(t, key, p, m) })
		}
	}
}

// TestFleetMulPinned: healthy fleet multiplies reproduce the parent
// commit's bits, and equal a cluster.Cluster built over the same RCB
// partition — the fleet adds policy, not arithmetic.
func TestFleetMulPinned(t *testing.T) {
	a := testMatrix(150, 5)
	forPinned(t, func(t *testing.T, key string, p, m int) {
		f, err := New(a, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := mulDigest(f, a.N(), m)
		if want := pinnedDigests[key]; got != want {
			t.Errorf("Fleet.Mul digest %#x, pinned %#x", got, want)
		}
		c, err := cluster.New(a, partition.RCB(a, nil, p).Part, p)
		if err != nil {
			t.Fatal(err)
		}
		if cd := mulDigest(c, a.N(), m); cd != got {
			t.Errorf("cluster.Mul digest %#x != Fleet.Mul digest %#x", cd, got)
		}
	})
}

// TestFleetChaosMulPinned: the same digests under message chaos and
// one mid-sequence crash on a restart-policy fleet — retries,
// duplicates, rejected corruptions and the rebuild leave no trace in
// the bits.
func TestFleetChaosMulPinned(t *testing.T) {
	a := testMatrix(150, 5)
	plan, err := faults.Parse("drop:rate=0.2;dup:rate=0.1;corrupt:rate=0.1;crash:node=1,at=2")
	if err != nil {
		t.Fatal(err)
	}
	var messageFaults int64
	forPinned(t, func(t *testing.T, key string, p, m int) {
		inj := plan.NewInjector(uint64(17 + p + m))
		f, err := New(a, p, Options{Faults: inj, Retry: testBackoff(3), Policy: PolicyRestart})
		if err != nil {
			t.Fatal(err)
		}
		got := mulDigest(f, a.N(), m)
		if want := pinnedDigests[key]; got != want {
			t.Errorf("chaos Fleet.Mul digest %#x, pinned %#x", got, want)
		}
		if inj.Injected(faults.Crash) != 1 || f.Topology().Gen < 2 {
			t.Errorf("crash rule did not fire (gen %d)", f.Topology().Gen)
		}
		messageFaults += inj.InjectedTotal() - 1
	})
	if messageFaults == 0 {
		t.Error("no message faults injected; the chaos table exercised only the crash")
	}
}
