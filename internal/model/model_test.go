package model

import (
	"math"
	"testing"
)

// sdShape mimics the paper's typical SD matrix: 25 blocks per block
// row (Section IV-B1).
var sdShape = Shape{NB: 300000, NNZB: 300000 * 25}

func TestRelativeTimeAtOne(t *testing.T) {
	g := GSPMV{Machine: WSM, Shape: sdShape}
	// r(1) = T(1)/Tbw(1); with the default k, T(1) is bandwidth
	// bound, so r(1) must be exactly 1.
	if r := g.RelativeTime(1); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r(1) = %v, want 1", r)
	}
}

func TestRelativeTimeMonotone(t *testing.T) {
	g := GSPMV{Machine: WSM, Shape: sdShape}
	prev := 0.0
	for m := 1; m <= 64; m++ {
		r := g.RelativeTime(m)
		if r < prev {
			t.Fatalf("r(m) decreased at m=%d", m)
		}
		prev = r
	}
}

func TestRelativeTimeSublinear(t *testing.T) {
	// The entire point of GSPMV: r(m) must grow much slower than m
	// while bandwidth-bound. For the paper's typical SD matrix on
	// WSM, 8-16 vectors cost at most ~2x one vector.
	g := GSPMV{Machine: WSM, Shape: sdShape}
	if r8 := g.RelativeTime(8); r8 > 2.0 {
		t.Fatalf("r(8) = %v, want <= 2 for the typical SD matrix", r8)
	}
}

func TestTrafficBytesFormula(t *testing.T) {
	g := GSPMV{Machine: WSM, Shape: Shape{NB: 10, NNZB: 40}, K: ConstK(2)}
	// m*nb*(3+k)*8 + 4*nb + nnzb*(4+72)
	want := 5.0*10*(3+2)*8 + 4*10 + 40*(4+72)
	if got := g.TrafficBytes(5); got != want {
		t.Fatalf("TrafficBytes = %v, want %v", got, want)
	}
}

func TestTcompLinearInM(t *testing.T) {
	g := GSPMV{Machine: SNB, Shape: sdShape}
	if math.Abs(g.Tcomp(10)-10*g.Tcomp(1)) > 1e-18 {
		t.Fatal("Tcomp must be linear in m")
	}
}

func TestBoundCrossover(t *testing.T) {
	g := GSPMV{Machine: WSM, Shape: sdShape}
	ms := g.MSwitch(64)
	if ms <= 1 || ms > 64 {
		t.Fatalf("m_s = %d, expected an interior crossover for the SD matrix", ms)
	}
	if g.Tcomp(ms-1) >= g.Tbw(ms-1) {
		t.Fatalf("below m_s should be bandwidth-bound")
	}
	if g.Tcomp(ms) < g.Tbw(ms) {
		t.Fatalf("at m_s should be compute-bound")
	}
}

func TestDiagonalMatrixAlwaysBandwidthBound(t *testing.T) {
	// Section IV-B1: a very large diagonal matrix has no vector
	// reuse; GSPMV stays bandwidth-bound for any m.
	g := GSPMV{Machine: WSM, Shape: Shape{NB: 1000000, NNZB: 1000000}}
	if ms := g.MSwitch(128); ms != 129 {
		t.Fatalf("diagonal matrix switched to compute-bound at m=%d", ms)
	}
}

func TestVectorsAtRatioPaperHeadline(t *testing.T) {
	// Paper abstract: on these machines one can typically multiply
	// 8-16 vectors in twice the single-vector time. Check the model
	// reproduces that band for the mat2- and mat3-like shapes.
	mat2 := GSPMV{Machine: WSM, Shape: Shape{NB: 395000, NNZB: 9000000}}  // 24.9 b/row
	mat3 := GSPMV{Machine: SNB, Shape: Shape{NB: 395000, NNZB: 18000000}} // 45.3 b/row
	mat1 := GSPMV{Machine: WSM, Shape: Shape{NB: 300000, NNZB: 1700000}}  // 5.6 b/row
	v2 := mat2.VectorsAtRatio(2, 64)
	v3 := mat3.VectorsAtRatio(2, 64)
	v1 := mat1.VectorsAtRatio(2, 64)
	if v2 < 8 || v2 > 20 {
		t.Fatalf("mat2/WSM vectors-at-2x = %d, paper ~12", v2)
	}
	if v3 < 12 || v3 > 24 {
		t.Fatalf("mat3/SNB vectors-at-2x = %d, paper ~16", v3)
	}
	if v1 >= v2 {
		t.Fatalf("mat1 (sparse rows) should allow fewer vectors than mat2: %d vs %d", v1, v2)
	}
}

func TestFig1ProfileTrends(t *testing.T) {
	// Two structural facts of the model: (a) for a fixed matrix
	// shape, raising B/F makes the compute bound bind earlier, so
	// the vectors-at-2x count never increases with B/F; (b) at very
	// low B/F the kernel stays bandwidth-bound, where denser rows
	// amortize better, so the count never decreases with blocks/row.
	bprs := []float64{6, 12, 24, 48, 84}
	bofs := []float64{0.02, 0.1, 0.3, 0.6}
	p := Fig1Profile(bprs, bofs, 512)
	for i := range p {
		for j := range p[i] {
			if p[i][j] < 1 {
				t.Fatalf("profile cell (%d,%d) = %d, want >= 1", i, j, p[i][j])
			}
			if j > 0 && p[i][j] > p[i][j-1] {
				t.Fatalf("count increased with B/F at bpr=%v", bprs[i])
			}
		}
	}
	for i := 1; i < len(bprs); i++ {
		if p[i][0] < p[i-1][0] {
			t.Fatal("count decreased with blocks/row in the bandwidth-bound column")
		}
	}
}

func TestMachineByteFlopRatio(t *testing.T) {
	if r := SNB.ByteFlopRatio(); math.Abs(r-0.3667) > 0.01 {
		t.Fatalf("SNB B/F = %v, paper reports 0.37", r)
	}
}

func mrhsForTest() MRHS {
	// Figure 7 parameters: 300,000 particles, 50%% occupancy.
	return MRHS{
		GSPMV: GSPMV{Machine: WSM, Shape: sdShape},
		N:     162, N1: 80, N2: 63, Cmax: 30,
	}
}

func TestMRHSStepTimePanicsOnZeroM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mrhsForTest().StepTime(0)
}

func TestMRHSOptimalNearSwitch(t *testing.T) {
	// Paper Table VIII / Section V-B3: m_optimal is close to m_s.
	p := mrhsForTest()
	ms := p.GSPMV.MSwitch(64)
	mo := p.MOptimal(64)
	if diff := mo - ms; diff < -6 || diff > 6 {
		t.Fatalf("m_optimal = %d far from m_s = %d", mo, ms)
	}
}

func TestMRHSBranchesAgreeWithStepTime(t *testing.T) {
	p := mrhsForTest()
	ms := p.GSPMV.MSwitch(64)
	for m := 1; m < ms; m++ {
		if math.Abs(p.StepTime(m)-p.StepTimeBandwidth(m)) > 1e-12*p.StepTime(m) {
			t.Fatalf("bandwidth branch mismatch at m=%d", m)
		}
	}
	for m := ms; m <= 40; m++ {
		if math.Abs(p.StepTime(m)-p.StepTimeCompute(m)) > 1e-12*p.StepTime(m) {
			t.Fatalf("compute branch mismatch at m=%d", m)
		}
	}
}

func TestMRHSBandwidthBranchDecreasing(t *testing.T) {
	// Eq. 11 analysis: while bandwidth-bound (and k constant), the
	// step time decreases with m.
	p := mrhsForTest()
	ms := p.GSPMV.MSwitch(64)
	for m := 2; m < ms; m++ {
		if p.StepTime(m) >= p.StepTime(m-1) {
			t.Fatalf("bandwidth-branch Tmrhs not decreasing at m=%d", m)
		}
	}
}

func TestMRHSComputeBranchIncreasing(t *testing.T) {
	// Eq. 12 analysis: once compute-bound, the step time increases.
	p := mrhsForTest()
	ms := p.GSPMV.MSwitch(64)
	for m := ms + 1; m <= 48; m++ {
		if p.StepTime(m) < p.StepTime(m-1)-1e-15 {
			t.Fatalf("compute-branch Tmrhs not increasing at m=%d", m)
		}
	}
}

func TestMRHSSpeedupBand(t *testing.T) {
	// Paper headline: ~10-30% end-to-end speedup. At the optimal m
	// the model should land in (1.0, 2.0) — strictly faster, not
	// absurdly so.
	p := mrhsForTest()
	s := p.Speedup(p.MOptimal(64))
	if s <= 1.0 || s >= 2.0 {
		t.Fatalf("modeled speedup = %v, want in (1, 2)", s)
	}
}

func TestMRHSDegenerateM1(t *testing.T) {
	// With m = 1 the MRHS algorithm is the original algorithm plus a
	// warm second solve; since the model's original also warm-starts
	// the second solve, the times must match exactly.
	p := mrhsForTest()
	if math.Abs(p.StepTime(1)-p.OriginalStepTime()) > 1e-12*p.OriginalStepTime() {
		t.Fatalf("StepTime(1) = %v, OriginalStepTime = %v", p.StepTime(1), p.OriginalStepTime())
	}
}

func TestDefaultKUsedWhenNil(t *testing.T) {
	g := GSPMV{Machine: WSM, Shape: sdShape}
	g2 := GSPMV{Machine: WSM, Shape: sdShape, K: ConstK(3)}
	if g.TrafficBytes(7) != g2.TrafficBytes(7) {
		t.Fatal("nil K must default to k=3")
	}
}
