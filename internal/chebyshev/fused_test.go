package chebyshev

import (
	"math"
	"sync"
	"testing"

	"repro/internal/multivec"
	"repro/internal/rng"
)

// poolDropsPuts is set under -race (race_test.go), where sync.Pool
// discards a random quarter of Puts and the recurrence's blocks are
// reallocated at random: allocation counts mean nothing there.
var poolDropsPuts bool

// unfused is ApplyBlock as it ran before the element passes were fused
// and the blocks pooled: fresh blocks, the three-term update over all
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
// over pooled blocks gives the bits of the passes it replaced, at the
// stepper's two widths and an odd one, also on a pool entry left
// behind by a larger evaluation.
func TestApplyBlockMatchesUnfusedRecurrence(t *testing.T) {
	a, lo, hi := randSPDMatrix(41, 40)
	s, err := NewSqrt(a, lo, hi, DefaultOrder, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{16, 1, 5} {
		z := multivec.New(a.N(), m)
		rng.New(uint64(42 + m)).FillNormal(z.Data)
		want, got := multivec.New(a.N(), m), multivec.New(a.N(), m)
		unfused(s, want, z)
		s.ApplyBlock(got, z)
		if m == 1 {
			s.Apply(got.Data, z.Data)
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
// SqrtOp built for that step's matrix; once the pool is warm neither
// call allocates — not the three blocks of the recurrence, not the
// headers Apply wraps its vectors in, not a closure per pass.
func TestChebyshevApplyDoesNotAllocate(t *testing.T) {
	if poolDropsPuts {
		t.Skip("sync.Pool drops items under -race")
	}
	a, lo, hi := randSPDMatrix(43, 60)
	z, y := multivec.New(a.N(), 16), multivec.New(a.N(), 16)
	rng.New(44).FillNormal(z.Data)
	z1, y1 := make([]float64, a.N()), make([]float64, a.N())
	rng.New(45).FillNormal(z1)
	s, err := NewSqrt(a, lo, hi, DefaultOrder, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Apply":      func() { s.Apply(y1, z1) },
		"ApplyBlock": func() { s.ApplyBlock(y, z) },
	} {
		f()
		if n := testing.AllocsPerRun(10, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

// TestConcurrentEvaluationsShareNoBlock: evaluations running at once —
// a verifier beside a runner, ensemble members — draw the recurrence's
// blocks from one pool and must each get their own: every result is
// the one the same call gives alone.
func TestConcurrentEvaluationsShareNoBlock(t *testing.T) {
	a, lo, hi := randSPDMatrix(46, 50)
	s, err := NewSqrt(a, lo, hi, DefaultOrder, 0)
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{1, 16, 4, 1, 8, 16}
	zs, want := make([]*multivec.MultiVec, len(widths)), make([]*multivec.MultiVec, len(widths))
	for g, m := range widths {
		zs[g], want[g] = multivec.New(a.N(), m), multivec.New(a.N(), m)
		rng.New(uint64(47 + g)).FillNormal(zs[g].Data)
		s.ApplyBlock(want[g], zs[g])
	}
	var wg sync.WaitGroup
	for g, m := range widths {
		wg.Add(1)
		go func(g, m int) {
			defer wg.Done()
			got := multivec.New(a.N(), m)
			for rep := 0; rep < 20; rep++ {
				s.ApplyBlock(got, zs[g])
				for i := range got.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want[g].Data[i]) {
						t.Errorf("goroutine %d (m=%d) rep %d: y[%d] = %v, alone %v", g, m, rep, i, got.Data[i], want[g].Data[i])
						return
					}
				}
			}
		}(g, m)
	}
	wg.Wait()
}
