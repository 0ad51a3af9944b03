package sd

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/parallel"
	"repro/internal/particles"
)

// TestStepAllocsIgnoreCollector: every solve and every Brownian force of
// a step runs on storage its runner owns, so what a step allocates does
// not depend on what the garbage collector took since the last one. Two
// runners on the same system take the same steps; with the collector
// off, a warmed op — sixteen steps of Algorithm 1, or four eight-step
// chunks of Algorithm 2 — allocates as many objects on the runner that
// forces two collections before every step or chunk as on the one that
// does not, under IC(0) and unpreconditioned, on pools 1 and 2, within
// perCollection objects per forced pair. A cache of the step's own
// storage that a collection empties costs far more each time: a fused
// solve's blocks and scalars, a block solve's, or a square root's. The
// plain op also stays under maxPerStep objects per time step.
func TestStepAllocsIgnoreCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("steps N = 1000 systems")
	}
	saved := parallel.Threads()
	t.Cleanup(func() { parallel.SetThreads(saved) })
	// The collector stays off from the first warm-up on: a collection
	// that ran there would empty the runtime's caches the plain op then
	// refills. Each case starts from a collection of its own, before its
	// warm-ups, which keeps the heap to one case's garbage.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sys, err := particles.New(particles.Options{N: 1000, Phi: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const steps, m, chunks = 16, 8, 4
	for _, threads := range []int{1, 2} {
		for _, window := range []string{"ic0", "none"} {
			for _, alg := range []string{"original", "mrhs"} {
				cfg := core.Config{Dt: 2, M: m, Seed: 1}
				if window == "none" {
					cfg.Precond = core.NoPrecond
				}
				// op runs one op on s and returns the objects its steps
				// allocated. With gc set, two collections run before every
				// step or chunk, outside the count: the runtime's own work
				// after a collection — the unique package's cleanup, which
				// allocates — gets a millisecond to finish first.
				op := func(s *Simulation, gc bool) (mallocs uint64, collections int) {
					var before, after runtime.MemStats
					run := func(step func() error) {
						if gc {
							runtime.GC()
							runtime.GC()
							time.Sleep(time.Millisecond)
							collections++
						}
						runtime.ReadMemStats(&before)
						if err := step(); err != nil {
							t.Fatal(err)
						}
						runtime.ReadMemStats(&after)
						mallocs += after.Mallocs - before.Mallocs
					}
					if alg == "mrhs" {
						for range chunks {
							run(func() error { return s.StepMRHS(m) })
						}
						return mallocs, collections
					}
					for range steps {
						run(s.StepOriginal)
					}
					return mallocs, collections
				}
				runtime.GC()
				plain := New(sys, hydro.Options{Phi: 0.4}, cfg, threads)
				forced := New(sys, hydro.Options{Phi: 0.4}, cfg, threads)
				op(plain, false)
				op(forced, false)
				want, _ := op(plain, false)
				got, collections := op(forced, true)
				slack := uint64(perCollection * collections)
				t.Logf("%d threads, %s window, %s: %d objects per op, %d with %d forced collections", threads, window, alg, want, got, collections)
				if got > want+slack || want > got+slack {
					t.Errorf("%d threads, %s window, %s: %d objects per op, %d with a collection before every step or chunk (slack %d)", threads, window, alg, want, got, slack)
				}
				opSteps := steps
				if alg == "mrhs" {
					opSteps = chunks * m
				}
				if limit := uint64(maxPerStep * opSteps); want > limit {
					t.Errorf("%d threads, %s window, %s: %d objects per op of %d steps, more than %d", threads, window, alg, want, opSteps, limit)
				}
			}
		}
	}
}

// perCollection is the slack per forced pair of collections: the
// runtime's own allocations that land in the count anyway — a cleanup
// that outlasts the pause before the step, and on two threads the
// records a parked worker waits on, whose caches a collection empties.
// Measured: 0 to 2 per op on one thread; on two, up to 15 per 16 pairs
// and 12 per 16 or 6 per 4 under -race. A pool the collector empties, of
// the solvers' or the square roots' storage, costs at least 9 per pair
// wherever it is reached.
const perCollection = 3

// maxPerStep bounds the objects a warmed time step allocates. Measured:
// 8.2 to 8.9 per step on pools 1 and 2 alike, 9.2 at most under -race.
// At N = 1000 only assembly's candidate pass splits over the pool, so a
// second thread adds next to no records a parked worker waits on (15.9
// to 18.4 when every multiply split); the noise stream and the paper's
// series live on the runner (9.5 to 12.4 when each step made its own).
// A metric name formatted per step and phase costs 11 more per step.
const maxPerStep = 10
