package bcrs

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// usePool sets the process pool to threads for the rest of the test.
func usePool(t testing.TB, threads int) {
	saved := parallel.Threads()
	t.Cleanup(func() { parallel.SetThreads(saved) })
	parallel.SetThreads(threads)
}

// randMatrix builds a random (not necessarily symmetric) BCRS matrix
// for kernel testing.
func randMatrix(rng *rand.Rand, nb int, density float64) *Matrix {
	b := NewBuilder(nb)
	for i := 0; i < nb; i++ {
		b.AddBlock(i, i, randBlock(rng))
		for j := 0; j < nb; j++ {
			if j != i && rng.Float64() < density {
				b.AddBlock(i, j, randBlock(rng))
			}
		}
	}
	return b.Build()
}

// denseMulRef computes Y = A*X through the dense oracle.
func denseMulRef(a *Matrix, x *multivec.MultiVec) *multivec.MultiVec {
	d := a.Dense()
	y := multivec.New(x.N, x.M)
	col := make([]float64, x.N)
	out := make([]float64, x.N)
	for j := 0; j < x.M; j++ {
		x.Col(j, col)
		d.MatVec(out, col)
		y.SetCol(j, out)
	}
	return y
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		nb := 1 + rng.Intn(40)
		a := randMatrix(rng, nb, 0.2)
		x := make([]float64, a.N())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, a.N())
		a.MulVec(y, x)
		ref := make([]float64, a.N())
		a.Dense().MatVec(ref, x)
		for i := range y {
			if !almostEqual(y[i], ref[i], 1e-12) {
				t.Fatalf("trial %d: MulVec[%d] = %v, want %v", trial, i, y[i], ref[i])
			}
		}
	}
}

// TestGSPMVAllM checks every specialized kernel and the generic
// fallback against the dense oracle.
func TestGSPMVAllM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 11, 16, 17, 32} {
		for trial := 0; trial < 5; trial++ {
			nb := 1 + rng.Intn(30)
			a := randMatrix(rng, nb, 0.25)
			x := multivec.New(a.N(), m)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			y := multivec.New(a.N(), m)
			a.Mul(y, x)
			ref := denseMulRef(a, x)
			for i := range y.Data {
				if !almostEqual(y.Data[i], ref.Data[i], 1e-12) {
					t.Fatalf("m=%d: Mul mismatch at %d", m, i)
				}
			}
		}
	}
}

func TestGenericKernelMatchesSpecialized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 2, 4, 8, 16, 32} {
		a := randMatrix(rng, 25, 0.3)
		x := multivec.New(a.N(), m)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		y1 := multivec.New(a.N(), m)
		y2 := multivec.New(a.N(), m)
		a.Mul(y1, x)
		a.MulGenericKernel(y2, x)
		for i := range y1.Data {
			if y1.Data[i] != y2.Data[i] {
				// Specialized and generic kernels perform the sums
				// in the same order, so results must be bitwise
				// identical.
				t.Fatalf("m=%d: specialized/generic differ at %d", m, i)
			}
		}
	}
}

func TestGSPMVColumnsIndependent(t *testing.T) {
	// Column j of A*X must equal A * (column j of X): multiplying
	// vectors as a block must not mix them.
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 20, 0.3)
	m := 6
	x := multivec.New(a.N(), m)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := multivec.New(a.N(), m)
	a.Mul(y, x)
	for j := 0; j < m; j++ {
		xc := x.ColVector(j)
		yc := make([]float64, a.N())
		a.MulVec(yc, xc)
		for i := 0; i < a.N(); i++ {
			if !almostEqual(y.At(i, j), yc[i], 1e-12) {
				t.Fatalf("column %d mixed with others", j)
			}
		}
	}
}

// TestConcurrentMulWhilePoolResizes multiplies one matrix from four
// goroutines while the pool flips between one and two threads: the
// spare split record — the ranges for one part count and the operands —
// is shared state of the matrix, and under -race this is the test that
// it is handed over safely. The matrix, 3.6 MB a multiply, splits on
// two threads. Every product must still be the serial one.
func TestConcurrentMulWhilePoolResizes(t *testing.T) {
	usePool(t, 1)
	a := Random(RandomOptions{NB: 4000, BlocksPerRow: 8, Seed: 19})
	const m = 4
	x := multivec.New(a.N(), m)
	rng.New(20).FillNormal(x.Data)
	want := multivec.New(a.N(), m)
	a.Mul(want, x)

	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				parallel.SetThreads(1 + i%2)
			}
		}
	}()
	jobs := obs.Default.Counter("parallel_jobs_total")
	before := jobs.Value()
	var muls sync.WaitGroup
	for g := 0; g < 4; g++ {
		muls.Add(1)
		go func() {
			defer muls.Done()
			y := multivec.New(a.N(), m)
			// Fifty products, and more until one has split: a flipper
			// that is not scheduled at first leaves the pool at one.
			for it := 0; it < 50 || jobs.Value() == before && it < 1e5; it++ {
				a.Mul(y, x)
				for i := range y.Data {
					if y.Data[i] != want.Data[i] {
						t.Errorf("iteration %d: y[%d] = %v, serial %v", it, i, y.Data[i], want.Data[i])
						return
					}
				}
			}
		}()
	}
	muls.Wait()
	close(stop)
	flips.Wait()
	if jobs.Value() == before {
		t.Fatal("no multiply split over the two-thread pool")
	}
}

func TestMulOverwritesOutput(t *testing.T) {
	// Y must be fully overwritten, not accumulated into.
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 10, 0.3)
	x := multivec.New(a.N(), 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := multivec.New(a.N(), 4)
	for i := range y.Data {
		y.Data[i] = 1e9
	}
	a.Mul(y, x)
	ref := denseMulRef(a, x)
	for i := range y.Data {
		if !almostEqual(y.Data[i], ref.Data[i], 1e-12) {
			t.Fatal("Mul did not overwrite stale output")
		}
	}
}

func TestEmptyRowsProduceZero(t *testing.T) {
	b := NewBuilder(4)
	b.AddBlock(1, 1, blas.Ident3())
	a := b.Build()
	x := make([]float64, a.N())
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, a.N())
	a.MulVec(y, x)
	for i := 0; i < 3; i++ {
		if y[i] != 0 {
			t.Fatal("empty block row must produce zeros")
		}
	}
	if y[3] != 1 || y[4] != 1 || y[5] != 1 {
		t.Fatal("identity row wrong")
	}
}

func TestLinearityProperty(t *testing.T) {
	// A*(x + c*y) = A*x + c*A*y for the specialized kernels.
	rng := rand.New(rand.NewSource(7))
	a := randMatrix(rng, 15, 0.3)
	f := func(c float64, seed int64) bool {
		if c != c || c > 1e6 || c < -1e6 { // NaN / huge guard
			return true
		}
		r := rand.New(rand.NewSource(seed))
		n := a.N()
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		z := make([]float64, n)
		for i := range z {
			z[i] = x[i] + c*y[i]
		}
		ax := make([]float64, n)
		ay := make([]float64, n)
		az := make([]float64, n)
		a.MulVec(ax, x)
		a.MulVec(ay, y)
		a.MulVec(az, z)
		for i := range az {
			if !almostEqual(az[i], ax[i]+c*ay[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	a := Random(RandomOptions{NB: 4, BlocksPerRow: 2, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Mul(multivec.New(a.N(), 2), multivec.New(a.N(), 3))
}
