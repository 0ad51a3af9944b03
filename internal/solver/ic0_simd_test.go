package solver

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bcrs"
	"repro/internal/cpufeat"
	"repro/internal/hydro"
	"repro/internal/particles"
)

// withSIMD runs fn with the assembly sweeps allowed or not. On a host
// without AVX2 both settings run the Go loops.
func withSIMD(on bool, fn func()) {
	defer func(saved bool) { cpufeat.AVX2 = saved }(cpufeat.AVX2)
	cpufeat.AVX2 = cpufeat.AVX2 && on
	fn()
}

// simdModes are the settings a kernel test runs under: the host's own,
// and the Go loops forced.
var simdModes = []bool{true, false}

// firstDiff returns the first index where a and b differ in bits (NaN
// payloads aside, as sameBits has it), -1 when none does.
func firstDiff(a, b []float64) int {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// dot3 is the one reduction every sweep is made of, a row of a block
// against three values, one rounding per operation.
func dot3(a0, a1, a2, y0, y1, y2 float64) float64 {
	t, u := float64(a0*y0), float64(a1*y1)
	t = float64(t + u)
	u = float64(a2 * y2)
	return float64(t + u)
}

// refForward and refBackward are the two substitutions as Apply
// promises them, written without its loops or its assembly.
func refForward(ic *IC0, z, r []float64) {
	for i := 0; i < ic.nb; i++ {
		s := [3]float64{r[3*i], r[3*i+1], r[3*i+2]}
		for k := ic.rowPtr[i]; k < ic.rowPtr[i+1]; k++ {
			v, y := ic.lower[9*k:9*k+9], z[3*ic.colIdx[k]:]
			for q := range s {
				s[q] = float64(s[q] - dot3(v[3*q], v[3*q+1], v[3*q+2], y[0], y[1], y[2]))
			}
		}
		d := ic.invDiag[9*i : 9*i+9]
		z[3*i] = float64(d[0] * s[0])
		z[3*i+1] = float64(float64(d[3]*s[0]) + float64(d[4]*s[1]))
		z[3*i+2] = dot3(d[6], d[7], d[8], s[0], s[1], s[2])
	}
}

func refBackward(ic *IC0, z []float64) {
	for i := ic.nb - 1; i >= 0; i-- {
		d, s := ic.invDiag[9*i:9*i+9], [3]float64{z[3*i], z[3*i+1], z[3*i+2]}
		x := [3]float64{dot3(d[0], d[3], d[6], s[0], s[1], s[2]), float64(float64(d[4]*s[1]) + float64(d[7]*s[2])), float64(d[8] * s[2])}
		copy(z[3*i:], x[:])
		for k := ic.rowPtr[i]; k < ic.rowPtr[i+1]; k++ {
			v, y := ic.lower[9*k:9*k+9], z[3*ic.colIdx[k]:]
			for q := 0; q < 3; q++ {
				y[q] = float64(y[q] - dot3(v[q], v[3+q], v[6+q], x[0], x[1], x[2]))
			}
		}
	}
}

// sweepCases are factors of a scattered, a banded, a block-diagonal
// (no strict-lower block at all) and a hydro-assembled matrix.
func sweepCases(t *testing.T) map[string]*IC0 {
	sys, err := particles.New(particles.Options{N: 200, Phi: 0.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	diag := bcrs.NewBuilder(5)
	diag.AddDiag(2)
	out := map[string]*IC0{}
	for name, a := range map[string]*bcrs.Matrix{
		"random":   spdMatrix(81, 60, 7),
		"banded":   bcrs.Random(bcrs.RandomOptions{NB: 50, BlocksPerRow: 9, Bandwidth: 3, NoWrap: true, Seed: 82}),
		"diagonal": diag.Build(),
		"hydro":    hydro.Build(sys, hydro.Options{Phi: 0.4}),
	} {
		ic, err := NewIC0(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = ic
	}
	return out
}

// TestIC0ApplyBitwiseMatchesReference: Apply, through the assembly
// sweeps and through the Go loops, gives the reference substitutions'
// bits — on finite right-hand sides and on ones with NaN, infinities,
// signed zeros and a subnormal — and so does each assembly sweep alone
// (checkSweeps, where there is assembly).
func TestIC0ApplyBitwiseMatchesReference(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324}
	for name, ic := range sweepCases(t) {
		n := 3 * ic.nb
		for hostile := 0; hostile < 2; hostile++ {
			r := randVec(83, n)
			for k := 0; k < hostile*(1+n/16); k++ {
				r[(7*k+3)%n] = specials[k%len(specials)]
			}
			fwd, want := make([]float64, n), make([]float64, n)
			refForward(ic, fwd, r)
			copy(want, fwd)
			refBackward(ic, want)
			for _, simd := range simdModes {
				got := make([]float64, n)
				withSIMD(simd, func() { ic.Apply(got, r) })
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s hostile=%d simd=%v: z[%d] = %v, want %v", name, hostile, simd, i, got[i], want[i])
				}
			}
			checkSweeps(t, name, ic, r, fwd, want)
		}
	}
}

// TestIC0RejectsNegativeColumn: the assembly sweeps index z by the
// pattern unchecked, so setPattern must not copy a column below zero
// out of a matrix whose arrays were damaged after bcrs.NewMatrix
// vetted them.
func TestIC0RejectsNegativeColumn(t *testing.T) {
	a := spdMatrix(84, 12, 4)
	lo, _ := a.RowBlocks(7)
	// Matrix has no mutator, on purpose; the test reaches its indices.
	v := reflect.ValueOf(a).Elem().FieldByName("colIdx")
	unsafe.Slice((*int32)(v.UnsafePointer()), v.Len())[lo] = -2
	if _, err := NewIC0(a); err == nil || !strings.Contains(err.Error(), "row 7: column -2") {
		t.Fatalf("NewIC0 error %v, want one naming row 7 and column -2", err)
	}
}

// TestMultiCGWidthOnePreconditionsInPlace: at kernel width 1 the block IS the
// column, so MultiCG preconditions it where it lies; the solve must be
// bitwise the one that copies the column out and back, which a
// two-column solve of the same system twice still does.
func TestMultiCGWidthOnePreconditionsInPlace(t *testing.T) {
	a := spdMatrix(85, 70, 7)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(86, a.N())
	opt := Options{Tol: 1e-10, Precond: ic}
	lone := make([]float64, a.N())
	st := CG(a, lone, b, opt)
	xs := [][]float64{make([]float64, a.N()), make([]float64, a.N())}
	sts := MultiCG(a, xs, [][]float64{b, b}, []Options{opt, opt})
	if !st.Converged || st.Iterations != sts[0].Iterations {
		t.Fatalf("lone solve: converged=%v in %d iterations, fused column in %d", st.Converged, st.Iterations, sts[0].Iterations)
	}
	if i := firstDiff(lone, xs[0]); i >= 0 {
		t.Fatalf("x[%d] = %v preconditioned in place, %v through the column copies", i, lone[i], xs[0][i])
	}
}
