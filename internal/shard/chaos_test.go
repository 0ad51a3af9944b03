package shard

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/multivec"
	"repro/internal/rng"
	"repro/internal/solver"
)

// testBackoff mirrors the cluster chaos-test retry policy: tight
// waits so injected drops/delays resolve in microseconds, a generous
// deadline so the test never flakes on scheduler hiccups.
func testBackoff(seed uint64) cluster.Backoff {
	return cluster.Backoff{
		Base:        20 * time.Microsecond,
		Max:         200 * time.Microsecond,
		MaxAttempts: 10,
		Deadline:    5 * time.Second,
		Seed:        seed,
	}
}

// TestShardChaosBitwise: the full chaos preset (drops, delays, dups,
// corruption, one slow shard, one hard crash) on a restart-policy
// fleet yields multiplies bitwise-identical to a healthy fleet at the
// same shard count. The checksummed retry transport absorbs message
// chaos without altering payloads, and PolicyRestart rebuilds the
// crashed shard on the same partition, so the aggregate is preserved
// bit for bit across the crash.
func TestShardChaosBitwise(t *testing.T) {
	a := testMatrix(150, 7)
	const p, rounds = 4, 12

	healthy, err := New(a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	plan, err := faults.Parse(faults.ChaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.NewInjector(11)
	chaos, err := New(a, p, Options{
		Faults: inj,
		Retry:  testBackoff(1),
		Policy: PolicyRestart,
	})
	if err != nil {
		t.Fatal(err)
	}

	for r := 0; r < rounds; r++ {
		x := randomMV(a.N(), 3, uint64(500+r))
		yRef := multivec.New(a.N(), 3)
		healthy.Mul(yRef, x)
		yC := multivec.New(a.N(), 3)
		chaos.Mul(yC, x)
		if !bitwiseEqual(yRef.Data, yC.Data) {
			t.Fatalf("round %d: chaos fleet diverged bitwise from healthy fleet", r)
		}
	}

	if inj.InjectedTotal() == 0 {
		t.Error("chaos run injected no faults; the test exercised nothing")
	}
	top := chaos.Topology()
	if top.Tombstoned == 0 {
		t.Error("chaos crash rule never fired (no tombstone recorded)")
	}
	if top.Shards != p {
		t.Errorf("restart policy ended with %d shards, want %d", top.Shards, p)
	}
	if chaos.Degraded() {
		t.Error("restart-policy fleet reports degraded after recovery")
	}
	if top.Gen < 2 {
		t.Errorf("crash recovery did not rebuild the topology (gen=%d)", top.Gen)
	}
}

// TestShardCrashDegrades: a hard crash under the default shrink
// policy re-partitions the matrix over the survivors and keeps
// serving — a CG solve that loses a shard mid-iteration still
// converges to the right answer, and the fleet reports itself
// degraded with the tombstone visible in the topology.
func TestShardCrashDegrades(t *testing.T) {
	a := testMatrix(120, 9)
	n := a.N()
	b := make([]float64, n)
	rng.New(4).FillNormal(b)
	opt := solver.Options{Tol: 1e-10, MaxIter: 800}

	xRef := make([]float64, n)
	if st := solver.CG(a, xRef, b, opt); !st.Converged {
		t.Fatalf("reference CG did not converge: %+v", st)
	}

	plan, err := faults.Parse("crash:node=1,at=3")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(a, 3, Options{
		Faults: plan.NewInjector(5),
		Retry:  testBackoff(2),
	})
	if err != nil {
		t.Fatal(err)
	}

	x := make([]float64, n)
	if st := solver.CG(f, x, b, opt); !st.Converged {
		t.Fatalf("degraded CG did not converge: %+v", st)
	}
	for i := range xRef {
		if d := math.Abs(xRef[i] - x[i]); d > 1e-6*(1+math.Abs(xRef[i])) {
			t.Fatalf("solution element %d differs: %g vs %g", i, xRef[i], x[i])
		}
	}

	top := f.Topology()
	if top.Shards != 2 {
		t.Errorf("shrink policy left %d shards, want 2", top.Shards)
	}
	if top.Tombstoned != 1 {
		t.Errorf("tombstoned = %d, want 1", top.Tombstoned)
	}
	if !f.Degraded() {
		t.Error("fleet lost a shard but does not report degraded")
	}
}
