package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster/faults"
	"repro/internal/multivec"
	"repro/internal/partition"
	"repro/internal/rng"
)

// testBackoff keeps chaos tests fast: microsecond waits, generous
// deadline.
func testBackoff(seed uint64) Backoff {
	return Backoff{Base: 20 * time.Microsecond, Max: 200 * time.Microsecond,
		MaxAttempts: 10, Deadline: 5 * time.Second, Seed: seed}
}

func chaosCluster(t *testing.T, nb, p int, spec string, seed uint64) (*Cluster, *faults.Injector, interface {
	Mul(y, x *multivec.MultiVec)
	N() int
}) {
	t.Helper()
	a, pos, box := testMatrix(int64(seed), nb)
	r := partition.Coordinate(a, pos, box, p, 0)
	cl, err := New(a, r.Part, p)
	if err != nil {
		t.Fatal(err)
	}
	var inj *faults.Injector
	if spec != "" {
		plan, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		inj = plan.NewInjector(seed)
		cl.SetFaults(inj, testBackoff(seed))
	}
	return cl, inj, a
}

// TestChaosMulMatchesSerial: under heavy message chaos (drops,
// delays, duplicates, corruption) every completed multiply is bitwise
// identical to the fault-free distributed multiply (and matches the
// serial kernel to rounding) — faults perturb delivery, never
// accepted data.
func TestChaosMulMatchesSerial(t *testing.T) {
	cl, inj, a := chaosCluster(t, 160, 4,
		"drop:rate=0.1;delay:rate=0.1,ms=0.05;dup:rate=0.05;corrupt:rate=0.05", 3)
	// Identical matrix, partition, and node count; no injector. This
	// is the bitwise reference: the distributed sum order differs from
	// the serial kernel's by rounding, so serial is only a tolerance
	// check.
	ref, _, _ := chaosCluster(t, 160, 4, "", 3)
	for _, m := range []int{1, 4, 9} {
		x := multivec.New(a.N(), m)
		rng.New(7).FillNormal(x.Data)
		yd := multivec.New(a.N(), m)
		if err := cl.TryMul(yd, x); err != nil {
			t.Fatalf("m=%d: TryMul failed: %v", m, err)
		}
		yh := multivec.New(a.N(), m)
		ref.Mul(yh, x)
		for i := range yd.Data {
			if yd.Data[i] != yh.Data[i] {
				t.Fatalf("m=%d: result differs from healthy distributed multiply at %d: %g != %g",
					m, i, yd.Data[i], yh.Data[i])
			}
		}
		ys := multivec.New(a.N(), m)
		a.Mul(ys, x)
		for i := range yd.Data {
			if math.Abs(yd.Data[i]-ys.Data[i]) > 1e-12*(1+math.Abs(ys.Data[i])) {
				t.Fatalf("m=%d: result far from serial at %d: %g vs %g",
					m, i, yd.Data[i], ys.Data[i])
			}
		}
	}
	if inj.InjectedTotal() == 0 {
		t.Error("no faults injected at these rates — chaos test exercised nothing")
	}
}

// TestChaosCrashSurfacesAndClears: a crash rule fails exactly one
// multiply with a fault error identifying the node; the next multiply
// (the "replay") succeeds because the rule is consumed.
func TestChaosCrashSurfacesAndClears(t *testing.T) {
	cl, inj, a := chaosCluster(t, 120, 3, "crash:node=1,at=2", 5)
	x := multivec.New(a.N(), 2)
	rng.New(1).FillNormal(x.Data)
	y := multivec.New(a.N(), 2)

	if err := cl.TryMul(y, x); err != nil {
		t.Fatalf("multiply 1 failed before the crash was due: %v", err)
	}
	err := cl.TryMul(y, x)
	if err == nil {
		t.Fatal("multiply 2 succeeded despite crash:node=1,at=2")
	}
	if !faults.IsFault(err) {
		t.Fatalf("crash error %v is not a fault error", err)
	}
	if inj.Injected(faults.Crash) != 1 {
		t.Fatalf("injected crash count = %d, want 1", inj.Injected(faults.Crash))
	}

	// Replay: the consumed crash does not re-fire, and the result is
	// bitwise the fault-free distributed result.
	if err := cl.TryMul(y, x); err != nil {
		t.Fatalf("replayed multiply failed: %v", err)
	}
	ref, _, _ := chaosCluster(t, 120, 3, "", 5)
	yh := multivec.New(a.N(), 2)
	ref.Mul(yh, x)
	for i := range y.Data {
		if y.Data[i] != yh.Data[i] {
			t.Fatalf("replayed result differs from healthy distributed multiply at %d", i)
		}
	}
}

// TestChaosMulPanicsWithFault: the solver-facing Mul cannot return an
// error, so it must panic with the fault — the mechanism that carries
// a failed halo exchange out of a CG iteration to the step boundary.
func TestChaosMulPanicsWithFault(t *testing.T) {
	cl, _, a := chaosCluster(t, 90, 3, "crash:node=0,at=1", 11)
	x := multivec.New(a.N(), 1)
	rng.New(2).FillNormal(x.Data)
	y := multivec.New(a.N(), 1)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Mul did not panic on a crashed node")
		}
		err, ok := p.(error)
		if !ok || !faults.IsFault(err) {
			t.Fatalf("Mul panicked with %v, want a fault error", p)
		}
	}()
	cl.Mul(y, x)
}

// TestChaosDeterministicDetections: two identically seeded chaos runs
// inject exactly the same faults.
func TestChaosDeterministicDetections(t *testing.T) {
	run := func() [6]int64 {
		cl, inj, a := chaosCluster(t, 100, 4,
			"drop:rate=0.2;dup:rate=0.1;corrupt:rate=0.1", 9)
		x := multivec.New(a.N(), 3)
		rng.New(4).FillNormal(x.Data)
		y := multivec.New(a.N(), 3)
		for i := 0; i < 5; i++ {
			if err := cl.TryMul(y, x); err != nil {
				t.Fatal(err)
			}
		}
		var out [6]int64
		for k := faults.Kind(0); k < 6; k++ {
			out[k] = inj.Injected(k)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identically seeded chaos runs injected different faults: %v vs %v", a, b)
	}
	total := int64(0)
	for _, v := range a {
		total += v
	}
	if total == 0 {
		t.Error("nothing injected")
	}
}
