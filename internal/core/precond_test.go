package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/particles"
	"repro/internal/sd"
	"repro/internal/solver"
)

// wrappedOp is what the benchmark's tracer hands back from
// Config.Distribute: the matrix behind one more call.
type wrappedOp struct{ a *bcrs.Matrix }

func (w wrappedOp) N() int                      { return w.a.N() }
func (w wrappedOp) MulVec(y, x []float64)       { w.a.MulVec(y, x) }
func (w wrappedOp) Mul(y, x *multivec.MultiVec) { w.a.Mul(y, x) }

func precondSystem(t *testing.T, seed uint64) *particles.System {
	t.Helper()
	sys, err := particles.New(particles.Options{N: 80, Phi: 0.35, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestHookedRunMatchesUnhooked reproduces the benchmark's traced /
// untraced parity inside this module (go test ./... does not reach
// bench/): a runner carrying the three hooks bench/sd.go installs for
// a traced run — FirstSolve calling solver.CG with the options it was
// handed, Distribute wrapping the matrix, BlockPrecond returning nil —
// takes the iterations and reaches the position bits of a runner
// without them, in both algorithms. The window's preconditioner has to
// reach the hooked first solve through opt, and a nil BlockPrecond
// result has to keep it for the block solve. A one-node cluster in
// Distribute — the distributed multiply with nothing to exchange — is
// held to the same bits.
func TestHookedRunMatchesUnhooked(t *testing.T) {
	const steps = 10 // two and a half chunks of m = 4
	opt := hydro.Options{Phi: 0.35}
	base := core.Config{Dt: 2, M: 4, Seed: 9}

	hooked := base
	firstSolves, blockSolves := 0, 0
	hooked.FirstSolve = func(a *bcrs.Matrix, x, b []float64, o solver.Options) solver.Stats {
		firstSolves++
		if o.Precond == nil {
			t.Error("the FirstSolve hook was handed no preconditioner")
		}
		return solver.CG(wrappedOp{a}, x, b, o)
	}
	hooked.Distribute = func(a *bcrs.Matrix, _ core.Configuration) core.DistOp { return wrappedOp{a} }
	hooked.BlockPrecond = func(*bcrs.Matrix) solver.Preconditioner { blockSolves++; return nil }

	oneNode := base
	oneNode.Distribute = func(a *bcrs.Matrix, _ core.Configuration) core.DistOp {
		cl, err := cluster.New(a, make([]int, a.NB()), 1)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	for _, alg := range []string{"original", "mrhs"} {
		run := func(cfg core.Config, wrap func(core.Configuration) core.Configuration) pinned {
			r := core.NewRunner(wrap(sd.NewConf(precondSystem(t, 9), opt, 1)), cfg)
			var err error
			if alg == "mrhs" {
				err = r.RunMRHS(steps)
			} else {
				err = r.RunOriginal(steps)
			}
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			return fingerprint(systemOf(r.Current()), r)
		}
		want := run(base, plain)
		if got := run(hooked, plain); got != want {
			t.Errorf("%s: hooked run %+v, unhooked %+v", alg, got, want)
		}
		// The hooks are handed matrices the stepper later hands back:
		// none of them may be reached again through what a hook built.
		if got := run(hooked, poisoned); got != want {
			t.Errorf("%s: hooked run over poisoned hand-backs %+v, unhooked %+v", alg, got, want)
		}
		for _, wrap := range []func(core.Configuration) core.Configuration{plain, poisoned} {
			if got := run(oneNode, wrap); got != want {
				t.Errorf("%s: one-node cluster run %+v, unhooked %+v", alg, got, want)
			}
		}
	}
	// Algorithm 1 solves first at every step, Algorithm 2 at every step
	// but a chunk's first; three chunks cover ten steps. The hooked
	// configuration ran twice.
	if firstSolves != 2*(steps+(steps-3)) || blockSolves != 2*3 {
		t.Errorf("hooks saw %d first solves and %d block solves, want %d and 6", firstSolves, blockSolves, 2*(2*steps-3))
	}
}

// TestDefaultSolvesMeetTolerance checks every solution of default
// (preconditioned) runs against the system it was asked to solve, with
// a multiply written here: the stopping rule reads the recurrence
// residual, which a wrong preconditioner or a sweep that scribbles on
// its input would leave looking converged.
func TestDefaultSolvesMeetTolerance(t *testing.T) {
	const tol = 1e-6
	for _, seed := range []uint64{1, 2, 3} {
		for _, alg := range []string{"original", "mrhs"} {
			sim := sd.New(precondSystem(t, seed), hydro.Options{Phi: 0.35}, core.Config{Dt: 2, M: 4, Seed: seed, Tol: tol}, 1)
			seen := map[string]int{}
			sim.SetAudit(func(kind string, a *bcrs.Matrix, x, b []float64) {
				seen[kind]++
				if res := naiveResidual(a, x, b); !(res <= 10*tol) {
					t.Errorf("seed %d %s: %s solve %d has true residual %g", seed, alg, kind, seen[kind], res)
				}
			})
			var err error
			if alg == "mrhs" {
				err = sim.RunMRHS(8)
			} else {
				err = sim.RunOriginal(8)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int{"first": 8, "second": 8}
			if alg == "mrhs" {
				want = map[string]int{"block": 8, "first": 6, "second": 8}
			}
			for kind, n := range want {
				if seen[kind] != n {
					t.Errorf("seed %d %s: audited %d %s solves, want %d", seed, alg, seen[kind], kind, n)
				}
			}
		}
	}
}

// naiveResidual returns ||b - A x|| / ||b|| through a dense-style
// triple loop over the stored blocks, sharing no kernel with the
// solvers.
func naiveResidual(a *bcrs.Matrix, x, b []float64) float64 {
	r := append([]float64(nil), b...)
	for i := 0; i < a.NB(); i++ {
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			j, blk := a.BlockCol(k), a.BlockAt(k)
			for p := 0; p < 3; p++ {
				for q := 0; q < 3; q++ {
					r[3*i+p] -= blk[3*p+q] * x[3*j+q]
				}
			}
		}
	}
	var rr, bb float64
	for i := range r {
		rr += r[i] * r[i]
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

// TestPrecondWindowObservability: the window shows in the counters and
// in the JSONL records — one rebuild per chunk, its factor time inside
// the phase that paid for it, and the age of the factor on every step
// it served — and not at all under NoPrecond.
func TestPrecondWindowObservability(t *testing.T) {
	run := func(precond func(*bcrs.Matrix) solver.Preconditioner, mrhs bool) (*obs.Registry, []map[string]any) {
		var buf bytes.Buffer
		events := obs.NewEventLog(&buf)
		sim := sd.New(precondSystem(t, 4), hydro.Options{Phi: 0.35}, core.Config{Dt: 2, M: 4, Seed: 4, Precond: precond}, 1)
		sim.Obs, sim.Events = obs.NewRegistry(), events
		var err error
		if mrhs {
			err = sim.RunMRHS(8)
		} else {
			err = sim.RunOriginal(8)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := events.Flush(); err != nil {
			t.Fatal(err)
		}
		var recs []map[string]any
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			var rec map[string]any
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("event line %q: %v", line, err)
			}
			recs = append(recs, rec)
		}
		return sim.Obs, recs
	}

	for _, mrhs := range []bool{true, false} {
		reg, recs := run(nil, mrhs)
		if n := reg.Counter("core_precond_rebuilds_total").Value(); n != 2 {
			t.Errorf("mrhs=%v: %d rebuilds over two windows, want 2", mrhs, n)
		}
		if n := reg.Counter("core_precond_fallbacks_total").Value(); n != 0 {
			t.Errorf("mrhs=%v: %d fallbacks on a healthy system", mrhs, n)
		}
		if s := reg.FloatCounter("core_precond_factor_seconds_total").Value(); !(s > 0) {
			t.Errorf("mrhs=%v: factor seconds %v, want > 0", mrhs, s)
		}
		factored := 0
		for _, rec := range recs {
			payer := "first_solve_s" // Algorithm 1 charges the window's first step
			if rec["event"] == "chunk" {
				payer = "calc_guesses_s"
			}
			if f, ok := rec["factor_s"].(float64); ok {
				factored++
				if paid, _ := rec[payer].(float64); !(f > 0 && f <= paid) {
					t.Errorf("mrhs=%v %v record: factor_s %v not within %s %v", mrhs, rec["event"], f, payer, paid)
				}
			}
			if rec["event"] != "step" {
				continue
			}
			step, _ := rec["step"].(float64)
			if age, ok := rec["precond_age_steps"].(float64); !ok || int(age) != int(step)%4 {
				t.Errorf("mrhs=%v step %v: precond_age_steps %v, want %d", mrhs, step, rec["precond_age_steps"], int(step)%4)
			}
		}
		if factored != 2 {
			t.Errorf("mrhs=%v: %d records carry factor_s, want one per window", mrhs, factored)
		}
	}

	reg, recs := run(core.NoPrecond, true)
	if n := reg.Counter("core_precond_rebuilds_total").Value() + reg.Counter("core_precond_fallbacks_total").Value(); n != 0 {
		t.Errorf("NoPrecond counted %d rebuilds + fallbacks", n)
	}
	for _, rec := range recs {
		if _, ok := rec["precond_age_steps"]; ok {
			t.Errorf("NoPrecond %v record carries precond_age_steps", rec["event"])
		}
	}
}
