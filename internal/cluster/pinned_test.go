package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/cluster/faults"
	"repro/internal/multivec"
	"repro/internal/partition"
	"repro/internal/rng"
)

// pinnedRounds is the number of multiplies each digest covers.
const pinnedRounds = 3

// pinnedDigests are FNV-64a digests of pinnedRounds consecutive
// multiplies on bcrs.Random{NB: 150, BlocksPerRow: 6, Seed: 5}
// distributed over partition.RCB(a, nil, p), keyed "p/m". They were
// recorded before the exchange step moved into this package, when it
// still ran on its own persistent workers, and every change to the
// strip plan or the exchange since has reproduced them. They were taken
// again when the general multiply began fusing its block rows'
// multiply-adds (bcrs's spmv1 recurrence); nothing else moved them.
var pinnedDigests = map[string]uint64{
	"2/1": 0xd836c32291c4b732, "2/5": 0x8b5be6ae3a877dd0, "2/32": 0xaeee7875b7a9ae76,
	"3/1": 0x1624e27b03db3d8a, "3/5": 0xcff753c9d9238951, "3/32": 0x6ca6d2e51e85f5da,
	"4/1": 0x5be9238f7e26d1d6, "4/5": 0x452e5f8f38b9da8f, "4/32": 0x913ef031d8997ab2,
}

func mulDigest(c *Cluster, n, m int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for r := 0; r < pinnedRounds; r++ {
		x := multivec.New(n, m)
		rng.New(uint64(900 + 10*m + r)).FillNormal(x.Data)
		y := multivec.New(n, m)
		c.Mul(y, x)
		for _, v := range y.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// forPinned runs fn over every pinned (p, m) on a fresh RCB cluster.
func forPinned(t *testing.T, fn func(t *testing.T, c *Cluster, n int, key string, p, m int)) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 150, BlocksPerRow: 6, Seed: 5})
	for _, p := range []int{2, 3, 4} {
		for _, m := range []int{1, 5, 32} {
			key := fmt.Sprintf("%d/%d", p, m)
			t.Run(key, func(t *testing.T) {
				c, err := New(a, partition.RCB(a, nil, p).Part, p)
				if err != nil {
					t.Fatal(err)
				}
				fn(t, c, a.N(), key, p, m)
			})
		}
	}
}

// TestClusterMulPinned: a healthy distributed multiply reproduces the
// pinned bits at every node count and width.
func TestClusterMulPinned(t *testing.T) {
	forPinned(t, func(t *testing.T, c *Cluster, n int, key string, p, m int) {
		if got, want := mulDigest(c, n, m), pinnedDigests[key]; got != want {
			t.Errorf("Mul digest %#x, pinned %#x", got, want)
		}
	})
}

// TestClusterChaosMulPinned: the same digests under message chaos —
// retransmitted drops, discarded duplicates and rejected corruptions
// leave no trace in the bits.
func TestClusterChaosMulPinned(t *testing.T) {
	plan, err := faults.Parse("drop:rate=0.2;dup:rate=0.1;corrupt:rate=0.1")
	if err != nil {
		t.Fatal(err)
	}
	var injected int64
	forPinned(t, func(t *testing.T, c *Cluster, n int, key string, p, m int) {
		inj := plan.NewInjector(uint64(17 + p + m))
		c.SetFaults(inj, testBackoff(3))
		if got, want := mulDigest(c, n, m), pinnedDigests[key]; got != want {
			t.Errorf("chaos Mul digest %#x, pinned %#x", got, want)
		}
		injected += inj.InjectedTotal()
	})
	if injected == 0 {
		t.Error("no message faults injected")
	}
}
