package partition

import (
	"math/rand"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
)

// localMatrix builds a matrix whose blocks connect geometrically
// nearby rows, mimicking a cutoff interaction, and returns it with
// the positions.
func localMatrix(seed int64, nb int, box, cutoff float64) (*bcrs.Matrix, []blas.Vec3) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]blas.Vec3, nb)
	for i := range pos {
		pos[i] = blas.Vec3{rng.Float64() * box, rng.Float64() * box, rng.Float64() * box}
	}
	b := bcrs.NewBuilder(nb)
	b.AddDiag(1)
	for i := 0; i < nb; i++ {
		for j := i + 1; j < nb; j++ {
			d := pos[i].Sub(pos[j])
			// Minimum-image for the periodic box.
			for c := 0; c < 3; c++ {
				if d[c] > box/2 {
					d[c] -= box
				}
				if d[c] < -box/2 {
					d[c] += box
				}
			}
			if d.Norm() < cutoff {
				b.AddBlock(i, j, blas.Ident3().ScaleM(0.1))
				b.AddBlock(j, i, blas.Ident3().ScaleM(0.1))
			}
		}
	}
	return b.Build(), pos
}

func checkCovers(t *testing.T, r *Result, nb, p int) {
	t.Helper()
	if len(r.Part) != nb {
		t.Fatalf("Part length %d, want %d", len(r.Part), nb)
	}
	seen := make([]bool, p)
	for i, pt := range r.Part {
		if pt < 0 || pt >= p {
			t.Fatalf("row %d assigned to invalid partition %d", i, pt)
		}
		seen[pt] = true
	}
	for pt, ok := range seen {
		if !ok && nb >= p {
			t.Fatalf("partition %d received no rows", pt)
		}
	}
}

func TestContiguousCoversAndBalances(t *testing.T) {
	// The contiguous-row partition is RCB without positions.
	a, _ := localMatrix(1, 200, 10, 2)
	for _, p := range []int{1, 2, 4, 7, 16} {
		r := RCB(a, nil, p)
		checkCovers(t, r, a.NB(), p)
		if imb := r.Imbalance(); imb > 1.6 {
			t.Fatalf("p=%d: contiguous imbalance %v", p, imb)
		}
	}
}

func TestCoordinateCoversAndBalances(t *testing.T) {
	a, pos := localMatrix(2, 300, 10, 2)
	for _, p := range []int{1, 2, 4, 8, 16} {
		r := Coordinate(a, pos, 10, p, 0)
		checkCovers(t, r, a.NB(), p)
		if imb := r.Imbalance(); imb > 1.7 {
			t.Fatalf("p=%d: coordinate imbalance %v", p, imb)
		}
	}
}

func TestNNZPerPartSumsToTotal(t *testing.T) {
	a, pos := localMatrix(3, 150, 8, 2)
	r := Coordinate(a, pos, 8, 4, 0)
	var sum int64
	for _, v := range r.NNZPerPart {
		sum += v
	}
	if sum != int64(a.NNZB()) {
		t.Fatalf("nnz sum %d, want %d", sum, a.NNZB())
	}
}

func TestCoordinateBeatsContiguousOnCommVolume(t *testing.T) {
	// For a geometrically local matrix with randomly ordered rows,
	// coordinate partitioning should need clearly less communication
	// than blind contiguous-row partitioning (RCB without positions).
	// This is the property that made the paper's cheap scheme
	// competitive with METIS.
	a, pos := localMatrix(4, 600, 12, 2.2)
	p := 8
	co := Analyze(a, Coordinate(a, pos, 12, p, 0))
	ct := Analyze(a, RCB(a, nil, p))
	if co.RemoteBlockRows >= ct.RemoteBlockRows {
		t.Fatalf("coordinate comm %d not better than contiguous %d",
			co.RemoteBlockRows, ct.RemoteBlockRows)
	}
}

func TestAnalyzeSinglePartitionNoComm(t *testing.T) {
	a, pos := localMatrix(5, 100, 8, 2)
	st := Analyze(a, Coordinate(a, pos, 8, 1, 0))
	if st.RemoteBlockRows != 0 || st.Messages != 0 {
		t.Fatalf("single partition must not communicate: %+v", st)
	}
}

func TestAnalyzeCountsSimpleCase(t *testing.T) {
	// Two rows, fully coupled, split across two partitions: each
	// node needs the other's single row -> 2 remote rows, 2 messages.
	b := bcrs.NewBuilder(2)
	b.AddDiag(1)
	b.AddBlock(0, 1, blas.Ident3())
	b.AddBlock(1, 0, blas.Ident3())
	a := b.Build()
	r := &Result{Part: []int{0, 1}, P: 2, NNZPerPart: []int64{2, 2}}
	st := Analyze(a, r)
	if st.RemoteBlockRows != 2 || st.Messages != 2 {
		t.Fatalf("got %+v, want 2 remote rows and 2 messages", st)
	}
	if st.VolumeBytes(4) != 2*3*4*8 {
		t.Fatalf("VolumeBytes(4) = %d", st.VolumeBytes(4))
	}
	if st.MaxNodeRecvRows != 1 || st.MaxNodeMessages != 2 {
		t.Fatalf("per-node maxima wrong: %+v", st)
	}
}

func TestCommVolumeScalesWithM(t *testing.T) {
	a, pos := localMatrix(6, 200, 10, 2)
	st := Analyze(a, Coordinate(a, pos, 10, 4, 0))
	if st.VolumeBytes(8) != 8*st.VolumeBytes(1) {
		t.Fatal("communication volume must scale linearly with m")
	}
}

func TestMorePartitionsMoreComm(t *testing.T) {
	a, pos := localMatrix(7, 400, 12, 2.5)
	prev := int64(-1)
	for _, p := range []int{2, 4, 16} {
		st := Analyze(a, Coordinate(a, pos, 12, p, 0))
		if st.RemoteBlockRows <= prev {
			// Not strictly guaranteed, but overwhelmingly true for
			// these sizes; a failure signals a partitioner bug.
			t.Fatalf("comm volume did not grow with p: p=%d rows=%d prev=%d",
				p, st.RemoteBlockRows, prev)
		}
		prev = st.RemoteBlockRows
	}
}

func TestCoordinateDeterministic(t *testing.T) {
	a, pos := localMatrix(8, 120, 9, 2)
	r1 := Coordinate(a, pos, 9, 4, 0)
	r2 := Coordinate(a, pos, 9, 4, 0)
	for i := range r1.Part {
		if r1.Part[i] != r2.Part[i] {
			t.Fatal("Coordinate not deterministic")
		}
	}
}

func TestImbalancePerfectCase(t *testing.T) {
	r := &Result{P: 2, NNZPerPart: []int64{10, 10}, Part: nil}
	if r.Imbalance() != 1 {
		t.Fatalf("Imbalance = %v, want 1", r.Imbalance())
	}
}

func TestMorePartitionsThanRows(t *testing.T) {
	a, pos := localMatrix(9, 3, 5, 1)
	r := Coordinate(a, pos, 5, 8, 0)
	// Every row still assigned to a valid partition.
	for _, pt := range r.Part {
		if pt < 0 || pt >= 8 {
			t.Fatalf("invalid partition %d", pt)
		}
	}
}

func TestRCBCoversAndBalances(t *testing.T) {
	a, pos := localMatrix(21, 400, 12, 2)
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
		r := RCB(a, pos, p)
		checkCovers(t, r, a.NB(), p)
		if imb := r.Imbalance(); imb > 1.8 {
			t.Fatalf("p=%d: RCB imbalance %v", p, imb)
		}
	}
}

func TestRCBNNZSum(t *testing.T) {
	a, pos := localMatrix(22, 200, 10, 2)
	r := RCB(a, pos, 6)
	var sum int64
	for _, v := range r.NNZPerPart {
		sum += v
	}
	if sum != int64(a.NNZB()) {
		t.Fatalf("nnz sum %d, want %d", sum, a.NNZB())
	}
}

func TestRCBCutsCommVersusSerpentine(t *testing.T) {
	// The point of RCB: compact parts communicate less than slab
	// parts from the serpentine sweep at moderate-to-large p.
	a, pos := localMatrix(23, 1200, 16, 2)
	p := 16
	rcb := Analyze(a, RCB(a, pos, p))
	sweep := Analyze(a, Coordinate(a, pos, 16, p, 0))
	if rcb.RemoteBlockRows >= sweep.RemoteBlockRows {
		t.Fatalf("RCB comm %d not below serpentine %d",
			rcb.RemoteBlockRows, sweep.RemoteBlockRows)
	}
}

func TestRCBDeterministic(t *testing.T) {
	a, pos := localMatrix(24, 150, 9, 2)
	r1 := RCB(a, pos, 5)
	r2 := RCB(a, pos, 5)
	for i := range r1.Part {
		if r1.Part[i] != r2.Part[i] {
			t.Fatal("RCB not deterministic")
		}
	}
}

func TestRCBMorePartsThanRows(t *testing.T) {
	a, pos := localMatrix(25, 3, 5, 1)
	r := RCB(a, pos, 6)
	for _, pt := range r.Part {
		if pt < 0 || pt >= 6 {
			t.Fatalf("invalid part %d", pt)
		}
	}
}

func TestRCBNilPositionsFallsBackToStrips(t *testing.T) {
	a, _ := localMatrix(26, 180, 11, 2)
	r := RCB(a, nil, 4)
	checkCovers(t, r, a.NB(), 4)
	// Index coordinates make the bisection a contiguous-strip cut:
	// partition labels must be non-decreasing in row order.
	for i := 1; i < a.NB(); i++ {
		if r.Part[i] < r.Part[i-1] {
			t.Fatalf("fallback partition not contiguous at row %d: %d after %d",
				i, r.Part[i], r.Part[i-1])
		}
	}
	// And it stays nnz-balanced, the property the median split buys.
	if imb := r.Imbalance(); imb > 1.8 {
		t.Fatalf("fallback imbalance %v", imb)
	}
	// A wrong-length embedding is still a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched positions did not panic")
		}
	}()
	RCB(a, make([]blas.Vec3, 3), 2)
}
