package parallel_test

import (
	"testing"

	"repro/internal/bcrs"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/particles"
)

// TestMultiplyPlansAtPoolTwo pins the part counts the split rule gives
// the benchmark's multiplies on a two-thread pool: the served shape
// (NB = 6000, 24 blocks a row) at the full batch width 32 and the
// gspmv_* matrix (NB = 12 000, band 1200) at m = 1 and 16 stream 11 to
// 31 MB and keep the eight parts they ran in before the rule, while the
// N = 1000 SD multiply at m = 1 (0.73 MB) runs inline, one dispatch
// cheaper than the multiply saves.
func TestMultiplyPlansAtPoolTwo(t *testing.T) {
	defer parallel.SetThreads(parallel.Threads())
	parallel.SetThreads(2)
	sys, err := particles.New(particles.Options{N: 1000, Phi: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sd := hydro.Build(sys, hydro.Options{Phi: 0.4})
	served := bcrs.Random(bcrs.RandomOptions{NB: 6000, BlocksPerRow: 24, Seed: 1})
	gspmv := bcrs.Random(bcrs.RandomOptions{NB: 12000, BlocksPerRow: 24, Bandwidth: 1200, NoWrap: true, Seed: 1})
	jobs, chunks := obs.Default.Counter("parallel_jobs_total"), obs.Default.Counter("parallel_chunks_total")
	for _, c := range []struct {
		name  string
		a     *bcrs.Matrix
		m     int
		parts int // 1: inline
	}{
		{"served m=32", served, 32, 8},
		{"gspmv m=1", gspmv, 1, 8},
		{"gspmv m=16", gspmv, 16, 8},
		{"SD N=1000 m=1", sd, 1, 1},
	} {
		x, y := multivec.New(c.a.N(), c.m), multivec.New(c.a.N(), c.m)
		j0, c0 := jobs.Value(), chunks.Value()
		c.a.Mul(y, x)
		dj, dc := jobs.Value()-j0, chunks.Value()-c0
		if c.parts == 1 && dj != 0 || c.parts > 1 && (dj != 1 || dc != int64(c.parts)) {
			t.Errorf("%s (%.2f MB): %d jobs of %d parts, want %d parts", c.name, float64(c.a.TrafficBytes(c.m))/1e6, dj, dc, c.parts)
		}
	}
}
