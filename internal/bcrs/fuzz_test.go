package bcrs

import (
	"testing"

	"repro/internal/multivec"
	"repro/internal/rng"
)

// FuzzNewSym drives symmetric extraction round-trips from fuzzed
// shape parameters: for any generated symmetric matrix, NewSym must
// succeed, halve the off-diagonal storage, and produce an operator
// whose parallel Mul matches the full matrix within round-off.
func FuzzNewSym(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(4), uint8(2), uint8(3), false)
	f.Add(uint64(7), uint8(50), uint8(8), uint8(0), uint8(1), true)
	f.Add(uint64(42), uint8(3), uint8(2), uint8(5), uint8(8), false)
	f.Fuzz(func(t *testing.T, seed uint64, nb, bpr, band, threads uint8, noWrap bool) {
		a := Random(RandomOptions{
			NB:           1 + int(nb)%64,
			BlocksPerRow: 1 + float64(bpr)/8,
			Bandwidth:    int(band),
			NoWrap:       noWrap,
			Seed:         seed,
		})
		s, err := NewSym(a)
		if err != nil {
			t.Fatalf("NewSym rejected a Random (symmetric) matrix: %v", err)
		}
		if want := (a.NNZB() + a.NB()) / 2; s.NNZB() != want {
			t.Fatalf("stored blocks %d, want %d", s.NNZB(), want)
		}
		s.SetThreads(1 + int(threads)%8)
		const m = 4
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		x := multivec.New(a.N(), m)
		for i := range x.Data {
			x.Data[i] = r.Normal()
		}
		y := multivec.New(a.N(), m)
		ref := multivec.New(a.N(), m)
		s.Mul(y, x)
		a.Mul(ref, x)
		for i := range y.Data {
			d := y.Data[i] - ref.Data[i]
			if d != d || d > 1e-9 || d < -1e-9 {
				t.Fatalf("sym Mul differs at %d: %v vs %v", i, y.Data[i], ref.Data[i])
			}
		}
	})
}
