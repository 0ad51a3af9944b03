package solver

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/rng"
)

// TestCGSolvesRandomSPDProperty: CG converges on arbitrary random SPD
// systems and the residual contract holds.
func TestCGSolvesRandomSPDProperty(t *testing.T) {
	prop := func(seed uint64, nbRaw, bprRaw uint8) bool {
		nb := 5 + int(nbRaw)%60
		bpr := 2 + int(bprRaw)%10
		a := bcrs.Random(bcrs.RandomOptions{NB: nb, BlocksPerRow: float64(bpr), Seed: seed})
		b := make([]float64, a.N())
		rng.Substream(seed, 1).FillNormal(b)
		x := make([]float64, a.N())
		st := CG(a, x, b, Options{Tol: 1e-8})
		if !st.Converged {
			return false
		}
		r := make([]float64, a.N())
		a.MulVec(r, x)
		blas.Sub(r, b, r)
		return blas.Nrm2(r) <= 1e-7*blas.Nrm2(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockCGConsistentWithCGProperty: block solutions match
// column-wise CG solutions for random systems and block widths.
func TestBlockCGConsistentWithCGProperty(t *testing.T) {
	prop := func(seed uint64, mRaw uint8) bool {
		m := 1 + int(mRaw)%6
		a := bcrs.Random(bcrs.RandomOptions{NB: 30, BlocksPerRow: 5, Seed: seed})
		b := multivec.New(a.N(), m)
		rng.Substream(seed, 2).FillNormal(b.Data)
		x := multivec.New(a.N(), m)
		st := BlockCG(a, x, b, Options{Tol: 1e-9})
		if !st.Converged {
			return false
		}
		for j := 0; j < m; j++ {
			ref := make([]float64, a.N())
			CG(a, ref, b.ColVector(j), Options{Tol: 1e-11})
			for i := range ref {
				if math.Abs(x.At(i, j)-ref[i]) > 1e-5*(1+math.Abs(ref[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestIC0PreservesSolutionProperty: preconditioning changes the
// iteration count, never the solution.
func TestIC0PreservesSolutionProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		a := bcrs.Random(bcrs.RandomOptions{NB: 40, BlocksPerRow: 6, Seed: seed})
		ic, err := NewIC0(a)
		if err != nil {
			return false
		}
		b := make([]float64, a.N())
		rng.Substream(seed, 3).FillNormal(b)
		plain := make([]float64, a.N())
		CG(a, plain, b, Options{Tol: 1e-10})
		pre := make([]float64, a.N())
		st := CG(a, pre, b, Options{Tol: 1e-10, Precond: ic})
		if !st.Converged {
			return false
		}
		for i := range plain {
			if math.Abs(plain[i]-pre[i]) > 1e-5*(1+math.Abs(plain[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiCGMatchesLoneCGProperty: for arbitrary batch widths, warm
// or cold guesses, tolerances, budgets and preconditioning, every
// column of the fused solve is the lone solve of it, bit for bit.
func TestMultiCGMatchesLoneCGProperty(t *testing.T) {
	prop := func(seed uint64, qRaw uint8) bool {
		q := 1 + int(qRaw)%36
		a := bcrs.Random(bcrs.RandomOptions{NB: 40, BlocksPerRow: 5, Seed: seed})
		n := a.N()
		s := rng.Substream(seed, 4)
		bj := NewBlockJacobi(a)
		xs0, bs, opts := make([][]float64, q), make([][]float64, q), make([]Options, q)
		for j := 0; j < q; j++ {
			xs0[j], bs[j] = make([]float64, n), make([]float64, n)
			s.FillNormal(bs[j])
			if s.Intn(3) == 0 {
				s.FillNormal(xs0[j]) // a (bad) warm start
			}
			opts[j] = Options{Tol: math.Pow(10, -1-8*s.Float64())}
			if s.Intn(3) == 0 {
				opts[j].MaxIter = 1 + s.Intn(12)
			}
			if s.Intn(8) == 0 {
				opts[j].Precond = bj
			}
		}
		checkFusedMatchesLone(t, "property", a, func(int) Operator { return a }, xs0, bs, opts)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
