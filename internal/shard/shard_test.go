package shard

import (
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/rng"
	"repro/internal/solver"
)

func testMatrix(nb int, seed uint64) *bcrs.Matrix {
	return bcrs.Random(bcrs.RandomOptions{NB: nb, BlocksPerRow: 6, Seed: seed})
}

func randomMV(n, m int, seed uint64) *multivec.MultiVec {
	v := multivec.New(n, m)
	rng.New(seed).FillNormal(v.Data)
	return v
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFleetSingleShardBitwise: the acceptance guarantee at Shards=1 —
// the single strip rebuilds the matrix with identical block order, so
// a fleet multiply is bitwise-identical to the plain matrix multiply.
func TestFleetSingleShardBitwise(t *testing.T) {
	a := testMatrix(120, 3)
	f, err := New(a, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 4, 9} {
		x := randomMV(a.N(), m, uint64(40+m))
		yRef := multivec.New(a.N(), m)
		a.Mul(yRef, x)
		yF := multivec.New(a.N(), m)
		f.Mul(yF, x)
		if !bitwiseEqual(yRef.Data, yF.Data) {
			t.Errorf("m=%d: 1-shard fleet multiply is not bitwise-identical to the matrix", m)
		}
	}
}

// TestFleetMatchesSerial: multi-shard multiplies match the serial
// kernel to rounding (the interior/boundary split regroups the
// per-row accumulation, so bitwise identity is not expected).
func TestFleetMatchesSerial(t *testing.T) {
	a := testMatrix(150, 5)
	for _, p := range []int{2, 3, 4} {
		f, err := New(a, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		x := randomMV(a.N(), 4, 77)
		yRef := multivec.New(a.N(), 4)
		a.Mul(yRef, x)
		yF := multivec.New(a.N(), 4)
		f.Mul(yF, x)
		for i := range yRef.Data {
			if d := math.Abs(yRef.Data[i] - yF.Data[i]); d > 1e-9*(1+math.Abs(yRef.Data[i])) {
				t.Fatalf("p=%d: element %d differs: %g vs %g", p, i, yRef.Data[i], yF.Data[i])
			}
		}
	}
}

// TestFleetDeterministic: at a fixed shard count and thread budget,
// fleet multiplies are bitwise-deterministic — across repeated calls
// and across independently-built fleets.
func TestFleetDeterministic(t *testing.T) {
	a := testMatrix(150, 5)
	for _, p := range []int{2, 4} {
		f1, err := New(a, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		f2, err := New(a, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		x := randomMV(a.N(), 8, 99)
		ys := make([]*multivec.MultiVec, 3)
		for i, f := range []*Fleet{f1, f1, f2} {
			ys[i] = multivec.New(a.N(), 8)
			f.Mul(ys[i], x)
		}
		if !bitwiseEqual(ys[0].Data, ys[1].Data) {
			t.Errorf("p=%d: repeated multiply on one fleet is not bitwise-stable", p)
		}
		if !bitwiseEqual(ys[0].Data, ys[2].Data) {
			t.Errorf("p=%d: independently-built fleets disagree bitwise", p)
		}
	}
}

// TestFleetCGSolve: a CG solve against the fleet converges to the
// same solution as a CG solve against the matrix (tolerance-level:
// multi-shard multiplies differ in rounding).
func TestFleetCGSolve(t *testing.T) {
	a := testMatrix(120, 9)
	n := a.N()
	b := make([]float64, n)
	rng.New(4).FillNormal(b)
	opt := solver.Options{Tol: 1e-10, MaxIter: 800}

	xRef := make([]float64, n)
	if st := solver.CG(a, xRef, b, opt); !st.Converged {
		t.Fatalf("reference CG did not converge: %+v", st)
	}
	f, err := New(a, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	xF := make([]float64, n)
	if st := solver.CG(f, xF, b, opt); !st.Converged {
		t.Fatalf("fleet CG did not converge: %+v", st)
	}
	for i := range xRef {
		if d := math.Abs(xRef[i] - xF[i]); d > 1e-6*(1+math.Abs(xRef[i])) {
			t.Fatalf("solution element %d differs: %g vs %g", i, xRef[i], xF[i])
		}
	}
}

// TestFleetTopology: the introspection snapshot covers every strip
// and the partition is a complete disjoint cover of the block rows.
func TestFleetTopology(t *testing.T) {
	a := testMatrix(90, 2)
	f, err := New(a, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := f.Topology()
	if top.Shards != 4 || top.Configured != 4 || top.Tombstoned != 0 || top.Gen != 1 {
		t.Fatalf("unexpected topology: %+v", top)
	}
	if top.Policy != string(PolicyShrink) {
		t.Errorf("default policy = %q, want shrink", top.Policy)
	}
	sum := 0
	for i, r := range top.BlockRows {
		if r == 0 {
			t.Errorf("shard %d owns no rows", i)
		}
		sum += r
	}
	if sum != a.NB() {
		t.Errorf("owned rows sum to %d, want %d", sum, a.NB())
	}
	if f.Degraded() {
		t.Error("fresh fleet reports degraded")
	}
}

// TestFleetRejectsBadOptions: constructor validation.
func TestFleetRejectsBadOptions(t *testing.T) {
	a := testMatrix(20, 1)
	if _, err := New(a, 0, Options{}); err == nil {
		t.Error("Shards=0 accepted")
	}
	if _, err := New(a, 21, Options{}); err == nil {
		t.Error("more shards than block rows accepted")
	}
}
