package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/model"
	"repro/internal/multivec"
	"repro/internal/partition"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// testMatrix builds a geometrically local symmetric matrix with
// positions, like an SD matrix.
func testMatrix(seed int64, nb int) (*bcrs.Matrix, []blas.Vec3, float64) {
	const box = 10.0
	rng := rand.New(rand.NewSource(seed))
	pos := make([]blas.Vec3, nb)
	for i := range pos {
		pos[i] = blas.Vec3{rng.Float64() * box, rng.Float64() * box, rng.Float64() * box}
	}
	b := bcrs.NewBuilder(nb)
	b.AddDiag(2)
	for i := 0; i < nb; i++ {
		for j := i + 1; j < nb; j++ {
			d := pos[i].Sub(pos[j])
			for c := 0; c < 3; c++ {
				if d[c] > box/2 {
					d[c] -= box
				}
				if d[c] < -box/2 {
					d[c] += box
				}
			}
			if d.Norm() < 2 {
				var blk blas.Mat3
				for q := range blk {
					blk[q] = rng.NormFloat64() * 0.1
				}
				b.AddBlock(i, j, blk)
				b.AddBlock(j, i, blk.Transpose3())
			}
		}
	}
	return b.Build(), pos, box
}

func TestDistributedMatchesSerial(t *testing.T) {
	a, pos, box := testMatrix(1, 240)
	for _, p := range []int{1, 2, 4, 8} {
		for _, m := range []int{1, 4, 16, 5} {
			r := partition.Coordinate(a, pos, box, p, 0)
			cl, err := New(a, r.Part, p)
			if err != nil {
				t.Fatal(err)
			}
			x := multivec.New(a.N(), m)
			rnd := rand.New(rand.NewSource(int64(p*100 + m)))
			for i := range x.Data {
				x.Data[i] = rnd.NormFloat64()
			}
			y := multivec.New(a.N(), m)
			cl.Mul(y, x)
			ref := multivec.New(a.N(), m)
			a.Mul(ref, x)
			for i := range y.Data {
				if !almostEqual(y.Data[i], ref.Data[i], 1e-12) {
					t.Fatalf("p=%d m=%d: distributed result differs at %d: %v vs %v",
						p, m, i, y.Data[i], ref.Data[i])
				}
			}
		}
	}
}

func TestDistributedContiguousPartition(t *testing.T) {
	a, _, _ := testMatrix(2, 150)
	r := partition.RCB(a, nil, 5) // no positions: contiguous row strips
	cl, err := New(a, r.Part, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := multivec.New(a.N(), 3)
	rnd := rand.New(rand.NewSource(9))
	for i := range x.Data {
		x.Data[i] = rnd.NormFloat64()
	}
	y := multivec.New(a.N(), 3)
	cl.Mul(y, x)
	ref := multivec.New(a.N(), 3)
	a.Mul(ref, x)
	for i := range y.Data {
		if !almostEqual(y.Data[i], ref.Data[i], 1e-12) {
			t.Fatal("contiguous-partition result differs")
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	a, _, _ := testMatrix(3, 30)
	if _, err := New(a, make([]int, 10), 2); err == nil {
		t.Fatal("expected error for wrong part length")
	}
	bad := make([]int, a.NB())
	bad[5] = 7
	if _, err := New(a, bad, 2); err == nil {
		t.Fatal("expected error for out-of-range node")
	}
	if _, err := New(a, make([]int, a.NB()), 0); err == nil {
		t.Fatal("expected error for p=0")
	}
}

func TestNodeShapesCoverMatrix(t *testing.T) {
	a, pos, box := testMatrix(4, 200)
	p := 6
	r := partition.Coordinate(a, pos, box, p, 0)
	cl, err := New(a, r.Part, p)
	if err != nil {
		t.Fatal(err)
	}
	var rows, nnzb int
	for id := 0; id < p; id++ {
		s := cl.NodeShape(id)
		rows += s.NB
		nnzb += s.NNZB
	}
	if rows != a.NB() {
		t.Fatalf("node rows sum %d, want %d", rows, a.NB())
	}
	if nnzb != a.NNZB() {
		t.Fatalf("node nnzb sum %d, want %d", nnzb, a.NNZB())
	}
}

func paperModel() CostModel { return PaperCost() }

func TestEstimateSingleNodeMatchesModel(t *testing.T) {
	a, _, _ := testMatrix(5, 120)
	cl, err := New(a, make([]int, a.NB()), 1)
	if err != nil {
		t.Fatal(err)
	}
	cm := paperModel()
	est := cl.Estimate(8, cm)
	if est.CommSec != 0 {
		t.Fatalf("single node must not communicate: %+v", est)
	}
	g := model.GSPMV{Machine: cm.Machine, Shape: model.Shape{NB: a.NB(), NNZB: a.NNZB()}, K: model.DefaultK}
	if !almostEqual(est.TotalSec, g.T(8), 1e-12) {
		t.Fatalf("single-node estimate %v, model %v", est.TotalSec, g.T(8))
	}
}

func TestRelativeTimeOneIsOne(t *testing.T) {
	a, pos, box := testMatrix(6, 200)
	r := partition.Coordinate(a, pos, box, 4, 0)
	cl, err := New(a, r.Part, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rt := cl.RelativeTime(1, paperModel()); rt != 1 {
		t.Fatalf("r(1) = %v", rt)
	}
}

func TestRelativeTimeSublinear(t *testing.T) {
	a, pos, box := testMatrix(7, 300)
	for _, p := range []int{2, 8} {
		r := partition.Coordinate(a, pos, box, p, 0)
		cl, err := New(a, r.Part, p)
		if err != nil {
			t.Fatal(err)
		}
		rt := cl.RelativeTime(16, paperModel())
		if rt >= 16 || rt < 1 {
			t.Fatalf("p=%d: r(16) = %v, want in [1, 16)", p, rt)
		}
	}
}

func TestCommFractionGrowsWithNodes(t *testing.T) {
	// Table III's phenomenon: with more nodes, local work shrinks
	// while message costs do not, so the communication fraction
	// rises.
	a, pos, box := testMatrix(8, 600)
	cm := paperModel()
	var prev float64
	for _, p := range []int{2, 8, 32} {
		r := partition.Coordinate(a, pos, box, p, 0)
		cl, err := New(a, r.Part, p)
		if err != nil {
			t.Fatal(err)
		}
		frac := cl.Estimate(1, cm).CommFraction
		if frac <= prev {
			t.Fatalf("comm fraction did not grow: p=%d frac=%v prev=%v", p, frac, prev)
		}
		prev = frac
	}
}

func TestCommFractionFallsWithM(t *testing.T) {
	// Table III rows: for fixed node count, more vectors amortize
	// latency, so the fraction of time in communication falls.
	a, pos, box := testMatrix(9, 600)
	cm := paperModel()
	r := partition.Coordinate(a, pos, box, 16, 0)
	cl, err := New(a, r.Part, 16)
	if err != nil {
		t.Fatal(err)
	}
	f1 := cl.Estimate(1, cm).CommFraction
	f32 := cl.Estimate(32, cm).CommFraction
	if f1 <= f32 {
		t.Fatalf("comm fraction did not fall from m=1 (%v) to m=32 (%v)", f1, f32)
	}
}

func TestLargePRelativeTimeFlattens(t *testing.T) {
	// Figure 3/4's key qualitative result: at large node counts,
	// communication (latency) dominates and extra vectors are nearly
	// free, so r(m) at large p drops below r(m) at small p.
	a, pos, box := testMatrix(11, 800)
	cm := paperModel()
	rts := make(map[int]float64)
	for _, p := range []int{1, 64} {
		r := partition.Coordinate(a, pos, box, p, 0)
		cl, err := New(a, r.Part, p)
		if err != nil {
			t.Fatal(err)
		}
		rts[p] = cl.RelativeTime(16, cm)
	}
	if rts[64] >= rts[1] {
		t.Fatalf("r(16) did not flatten at 64 nodes: p1=%v p64=%v", rts[1], rts[64])
	}
}

func TestCostModelVolumeScaling(t *testing.T) {
	// Communication volume term must scale with m: with latency
	// zeroed, comm time at m=8 is 8x comm at m=1.
	a, pos, box := testMatrix(12, 300)
	r := partition.Coordinate(a, pos, box, 4, 0)
	cl, err := New(a, r.Part, 4)
	if err != nil {
		t.Fatal(err)
	}
	cm := paperModel()
	cm.Net.LatencySec = 0
	c1 := cl.Estimate(1, cm).CommSec
	c8 := cl.Estimate(8, cm).CommSec
	if !almostEqual(c8, 8*c1, 1e-12) {
		t.Fatalf("comm volume scaling wrong: %v vs 8*%v", c8, c1)
	}
}

func TestDistributedRCBPartition(t *testing.T) {
	a, pos, _ := testMatrix(13, 200)
	for _, p := range []int{3, 8} {
		r := partition.RCB(a, pos, p)
		cl, err := New(a, r.Part, p)
		if err != nil {
			t.Fatal(err)
		}
		x := multivec.New(a.N(), 6)
		rnd := rand.New(rand.NewSource(int64(p)))
		for i := range x.Data {
			x.Data[i] = rnd.NormFloat64()
		}
		y := multivec.New(a.N(), 6)
		cl.Mul(y, x)
		ref := multivec.New(a.N(), 6)
		a.Mul(ref, x)
		for i := range y.Data {
			if !almostEqual(y.Data[i], ref.Data[i], 1e-12) {
				t.Fatalf("p=%d: RCB-partitioned result differs", p)
			}
		}
	}
}

func TestRCBReducesCommFraction(t *testing.T) {
	// Compact parts must communicate no more than serpentine slabs.
	a, pos, box := testMatrix(14, 700)
	p := 16
	cm := PaperCost()
	rRCB := partition.RCB(a, pos, p)
	rSweep := partition.Coordinate(a, pos, box, p, 0)
	if rcb, sweep := partition.Analyze(a, rRCB), partition.Analyze(a, rSweep); rcb.RemoteBlockRows > sweep.RemoteBlockRows {
		t.Fatalf("RCB comm rows %d exceed serpentine %d", rcb.RemoteBlockRows, sweep.RemoteBlockRows)
	}
	_ = cm
}

func TestNodeEstimatesConsistentWithEstimate(t *testing.T) {
	a, pos, _ := testMatrix(15, 300)
	r := partition.RCB(a, pos, 6)
	cl, err := New(a, r.Part, 6)
	if err != nil {
		t.Fatal(err)
	}
	cm := PaperCost()
	nes := cl.NodeEstimates(8, cm)
	if len(nes) != 6 {
		t.Fatalf("node estimates %d", len(nes))
	}
	var maxComp, maxComm, maxTotal float64
	var rows, nnzb int
	for _, ne := range nes {
		if ne.ComputeSec > maxComp {
			maxComp = ne.ComputeSec
		}
		if ne.CommSec > maxComm {
			maxComm = ne.CommSec
		}
		if ne.TotalSec > maxTotal {
			maxTotal = ne.TotalSec
		}
		rows += ne.Rows
		nnzb += ne.NNZB
	}
	est := cl.Estimate(8, cm)
	if est.ComputeSec != maxComp || est.CommSec != maxComm || est.TotalSec != maxTotal {
		t.Fatalf("Estimate maxima disagree with NodeEstimates: %+v", est)
	}
	if rows != a.NB() || nnzb != a.NNZB() {
		t.Fatalf("per-node sums wrong: rows %d nnzb %d", rows, nnzb)
	}
}
