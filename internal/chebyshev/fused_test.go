package chebyshev

import (
	"math"
	"sync"
	"testing"

	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/solver"
)

// unfused is ApplyBlock as it ran before the element passes were fused
// and the blocks kept in a workspace: fresh blocks, the three-term update over all
// elements, then the term added to the sum.
func unfused(s *SqrtOp, y, z *multivec.MultiVec) {
	alpha := 2 / (s.lmax - s.lmin)
	beta := -(s.lmax + s.lmin) / (s.lmax - s.lmin)
	tPrev := z.Clone()
	y.CopyFrom(z)
	y.Scale(s.c[0] / 2)
	tCur, scratch := multivec.New(z.N, z.M), multivec.New(z.N, z.M)
	s.a.Mul(tCur, z)
	for i := range tCur.Data {
		tCur.Data[i] = alpha*tCur.Data[i] + beta*z.Data[i]
	}
	for i := range y.Data {
		y.Data[i] += s.c[1] * tCur.Data[i]
	}
	for j := 2; j < len(s.c); j++ {
		s.a.Mul(scratch, tCur)
		for i := range scratch.Data {
			scratch.Data[i] = 2*(alpha*scratch.Data[i]+beta*tCur.Data[i]) - tPrev.Data[i]
		}
		tPrev, tCur, scratch = tCur, scratch, tPrev
		for i := range y.Data {
			y.Data[i] += s.c[j] * tCur.Data[i]
		}
	}
}

// TestApplyBlockMatchesUnfusedRecurrence: one fused pass per degree
// over a workspace's blocks gives the bits of the passes it replaced,
// at the stepper's two widths and an odd one, also on storage left
// behind by a larger evaluation.
func TestApplyBlockMatchesUnfusedRecurrence(t *testing.T) {
	a, lo, hi := randSPDMatrix(41, 40)
	s, err := NewSqrt(a, lo, hi, DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(Workspace)
	for _, m := range []int{16, 1, 5} {
		z := multivec.New(a.N(), m)
		rng.New(uint64(42 + m)).FillNormal(z.Data)
		want, got := multivec.New(a.N(), m), multivec.New(a.N(), m)
		unfused(s, want, z)
		s.ApplyBlock(ws, got, z)
		if m == 1 {
			s.ApplyBlock(ws, multivec.FromVector(got.Data), multivec.FromVector(z.Data))
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("m=%d: y[%d] = %v fused, %v unfused", m, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestChebyshevApplyDoesNotAllocate: a stepper evaluates the series on
// one vector every step and on a block every chunk, each time through a
// SqrtOp built for that step's matrix; on a warmed workspace neither
// call allocates — not the three blocks of the recurrence, not the
// headers ApplyBlock wraps its vectors in, not a closure per pass. Nor
// does the preconditioned inverse root, whose basis, scalars and small
// eigenproblems the workspace also keeps and whose lane sweeps reuse
// multivec's spare records: on one vector and on a block, it is what
// every default step runs. On two threads a block that
// streams enough splits each pass over the pool, through the row
// function the workspace binds once.
func TestChebyshevApplyDoesNotAllocate(t *testing.T) {
	a, lo, hi := randSPDMatrix(43, 60)
	z, y := multivec.New(a.N(), 16), multivec.New(a.N(), 16)
	rng.New(44).FillNormal(z.Data)
	z1, y1 := make([]float64, a.N()), make([]float64, a.N())
	rng.New(45).FillNormal(z1)
	s, err := NewSqrt(a, lo, hi, DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := solver.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(Workspace)
	y1v, z1v := multivec.FromVector(y1), multivec.FromVector(z1)
	for name, f := range map[string]func(){
		"ApplyBlock/1":      func() { s.ApplyBlock(ws, y1v, z1v) },
		"ApplyBlock":        func() { s.ApplyBlock(ws, y, z) },
		"PrecondInvSqrt/1":  func() { PrecondInvSqrt(ws, a, ic, y1v, z1v, 0, 0) },
		"PrecondInvSqrt/16": func() { PrecondInvSqrt(ws, a, ic, y, z, 0, 0) },
	} {
		f()
		if n := testing.AllocsPerRun(10, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}

	// The stepper's width on a matrix of 3600 rows: 57 600 elements,
	// whose 2.8 MB a pass streams split in two on two threads.
	big, lo, hi := randSPDMatrix(47, 1200)
	sb, err := NewSqrt(big, lo, hi, DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	zb, yb := multivec.New(big.N(), 16), multivec.New(big.N(), 16)
	rng.New(48).FillNormal(zb.Data)
	defer parallel.SetThreads(parallel.Threads())
	parallel.SetThreads(2)
	f := func() { sb.ApplyBlock(ws, yb, zb) }
	jobs := obs.Default.Counter("parallel_jobs_total")
	before := jobs.Value()
	f()
	if jobs.Value() == before {
		t.Fatalf("%d elements do not split on two threads", len(yb.Data))
	}
	if n := testing.AllocsPerRun(10, f); n != 0 {
		t.Errorf("ApplyBlock split over two threads allocates %v times per call, want 0", n)
	}
}

// TestConcurrentEvaluationsShareNoBlock: evaluations running at once —
// a verifier beside a runner, two runners in one process — each on its
// own workspace, share only multivec's spare sweep records, and must
// each get their own blocks: every result is the one the same call
// gives alone.
func TestConcurrentEvaluationsShareNoBlock(t *testing.T) {
	a, lo, hi := randSPDMatrix(46, 50)
	s, err := NewSqrt(a, lo, hi, DefaultOrder)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := solver.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	for name, eval := range map[string]func(ws *Workspace, y, z *multivec.MultiVec){
		"series": func(ws *Workspace, y, z *multivec.MultiVec) {
			if err := s.ApplyBlock(ws, y, z); err != nil {
				t.Error(err)
			}
		},
		"inverse lanczos": func(ws *Workspace, y, z *multivec.MultiVec) {
			if _, err := PrecondInvSqrt(ws, a, ic, y, z, 0, 0); err != nil {
				t.Error(err)
			}
		},
	} {
		widths := []int{1, 16, 4, 1, 8, 16}
		zs, want := make([]*multivec.MultiVec, len(widths)), make([]*multivec.MultiVec, len(widths))
		for g, m := range widths {
			zs[g], want[g] = multivec.New(a.N(), m), multivec.New(a.N(), m)
			rng.New(uint64(47 + g)).FillNormal(zs[g].Data)
			eval(nil, want[g], zs[g])
		}
		var wg sync.WaitGroup
		for g, m := range widths {
			wg.Add(1)
			go func(g, m int) {
				defer wg.Done()
				got, ws := multivec.New(a.N(), m), new(Workspace)
				for rep := 0; rep < 20; rep++ {
					eval(ws, got, zs[g])
					for i := range got.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want[g].Data[i]) {
							t.Errorf("%s, goroutine %d (m=%d) rep %d: y[%d] = %v, alone %v", name, g, m, rep, i, got.Data[i], want[g].Data[i])
							return
						}
					}
				}
			}(g, m)
		}
		wg.Wait()
	}
}
