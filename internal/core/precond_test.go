package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/chebyshev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/particles"
	"repro/internal/rng"
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

// TestChunkStepZeroIsAlgorithmOne: under the default window a chunk's
// first step is Algorithm 1's step from the same configuration and
// seed, bit for bit — the midpoint velocity and the positions after it.
// The chunk's block inverse root gives column 0 the bits of the
// single-column root Algorithm 1 runs, and column 0 of the direct
// guesses is Algorithm 1's direct velocity; no block solve runs.
func TestChunkStepZeroIsAlgorithmOne(t *testing.T) {
	const m = 16
	sys, err := particles.New(particles.Options{N: 200, Phi: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	type after struct {
		uHalf    []float64
		checksum uint64
	}
	run := func(mrhs bool) after {
		r := core.NewRunner(sd.NewConf(sys.Clone(), hydro.Options{Phi: 0.4}, 1), core.Config{Dt: 2, M: m, Seed: 11})
		var got after
		r.OnStep = func(step int, u []float64, _ float64) {
			switch step {
			case 0:
				got.uHalf = slices.Clone(u)
			case 1: // the configuration step 0 left
				got.checksum = systemOf(r.Current()).Checksum()
			}
		}
		if mrhs {
			err = r.StepMRHS(m)
		} else {
			err = r.StepOriginal()
			got.checksum = systemOf(r.Current()).Checksum()
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec := r.Records[0]; !rec.Direct || rec.FirstIters != 0 || r.BlockIters != 0 {
			t.Errorf("mrhs %v: step 0 record %+v after %d block iterations, want a direct step and none", mrhs, rec, r.BlockIters)
		}
		return got
	}
	want, got := run(false), run(true)
	for i := range want.uHalf {
		if math.Float64bits(got.uHalf[i]) != math.Float64bits(want.uHalf[i]) {
			t.Fatalf("midpoint velocity entry %d: chunk %v, Algorithm 1 %v", i, got.uHalf[i], want.uHalf[i])
		}
	}
	if got.checksum != want.checksum {
		t.Errorf("positions after step 0: chunk %#x, Algorithm 1 %#x", got.checksum, want.checksum)
	}
}

// TestChunkWarmStepDrawsAlgorithmOnesForce: under the default window a
// chunk's step 1 hands its first solve the right-hand side Algorithm 1
// hands its own at step 1, bit for bit. Both take step 1 from the same
// configuration (TestChunkStepZeroIsAlgorithmOne) under R_0's factor,
// and both draw its force by the inverse root, R_1*u* with
// u* = -M^{-1}*y'; the chunk still solves from its guess.
func TestChunkWarmStepDrawsAlgorithmOnesForce(t *testing.T) {
	const m = 4
	sys, err := particles.New(particles.Options{N: 200, Phi: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	type atStep1 struct {
		b        []float64
		checksum uint64
	}
	run := func(mrhs bool) atStep1 {
		var got atStep1
		var r *core.Runner
		cfg := core.Config{Dt: 2, M: m, Seed: 11}
		cfg.FirstSolve = func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats {
			if r.StepIndex() == 1 {
				got.b = slices.Clone(b)
				got.checksum = systemOf(r.Current()).Checksum()
			}
			return solver.CG(a, x, b, opt)
		}
		r = core.NewRunner(sd.NewConf(sys.Clone(), hydro.Options{Phi: 0.4}, 1), cfg)
		if mrhs {
			err = r.StepMRHS(m)
		} else {
			err = r.RunOriginal(2)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.b == nil {
			t.Fatalf("mrhs %v: step 1 ran no first solve", mrhs)
		}
		return got
	}
	want, got := run(false), run(true)
	if got.checksum != want.checksum {
		t.Fatalf("configuration at step 1: chunk %#x, Algorithm 1 %#x", got.checksum, want.checksum)
	}
	for i := range want.b {
		if math.Float64bits(got.b[i]) != math.Float64bits(want.b[i]) {
			t.Fatalf("step 1's right-hand side entry %d: chunk %v, Algorithm 1 %v", i, got.b[i], want.b[i])
		}
	}
}

// TestDirectGuessesSolveTheirColumns: a chunk under the default window
// hands the audit every column of its direct guesses, and R_0*u_j equals
// the right-hand side it was handed to rounding, by a multiply written
// here. That right-hand side is -f_j, to rounding: minus the force the
// inverse root draws from z_j alone through a fresh IC(0) factor of R_0,
// f_j = R_0*M^{-1}*y'_j, so column j of the chunk is step j's noise.
func TestDirectGuessesSolveTheirColumns(t *testing.T) {
	const m, chunks, seed = 4, 2, 12
	sim := sd.New(precondSystem(t, seed), hydro.Options{Phi: 0.35}, core.Config{Dt: 2, M: m, Seed: seed}, 1)
	cols := 0
	sim.SetAudit(func(kind string, a *bcrs.Matrix, x, b []float64) {
		if kind != "block" {
			return
		}
		k := cols // the global step column j of the chunk is drawn for
		cols++
		if res := naiveResidual(a, x, b); !(res <= 1e-13) {
			t.Errorf("step %d's guess: R_0*u misses its right-hand side by %.3g", k, res)
		}
		ic, err := solver.NewIC0(a)
		if err != nil {
			t.Fatal(err)
		}
		z, y, u, f := make([]float64, len(b)), make([]float64, len(b)), make([]float64, len(b)), make([]float64, len(b))
		rng.Substream(seed, uint64(k)).FillNormal(z)
		if _, err := chebyshev.PrecondInvSqrt(nil, a, ic, multivec.FromVector(y), multivec.FromVector(z), 0, 0); err != nil {
			t.Fatal(err)
		}
		ic.ApplyBlock(multivec.FromVector(u), multivec.FromVector(y))
		a.MulVec(f, u)
		var dd, ff float64
		for i := range f {
			d := b[i] + f[i]
			dd, ff = dd+d*d, ff+f[i]*f[i]
		}
		if e := math.Sqrt(dd / ff); !(e <= 1e-12) {
			t.Errorf("step %d's guess: its right-hand side is %.3g from minus the inverse root's force", k, e)
		}
	})
	if err := sim.RunMRHS(chunks * m); err != nil {
		t.Fatal(err)
	}
	if cols != chunks*m {
		t.Errorf("audited %d guesses, want %d", cols, chunks*m)
	}
}

// TestChunkGuessesObservability: the chunk record says how its guesses
// were made — "direct" under the default window, counted in
// core_direct_guess_chunks_total with step 0's record Direct; "block"
// under NoPrecond, with or without a BlockPrecond, with the block solve's
// tolerance, which is Tol for a runner's first chunk and c times the
// smallest guess error of the previous chunk's warm steps after it.
func TestChunkGuessesObservability(t *testing.T) {
	const m, tol = 4, 1e-6
	for _, setting := range []string{"default", "NoPrecond", "BlockPrecond"} {
		cfg := core.Config{Dt: 2, M: m, Seed: 13, Tol: tol}
		switch setting {
		case "NoPrecond":
			cfg.Precond = core.NoPrecond
		case "BlockPrecond":
			cfg.Precond = core.NoPrecond
			cfg.BlockPrecond = func(a *bcrs.Matrix) solver.Preconditioner {
				ic, err := solver.NewIC0(a)
				if err != nil {
					t.Fatal(err)
				}
				return ic
			}
		}
		var buf bytes.Buffer
		sim := sd.New(precondSystem(t, 13), hydro.Options{Phi: 0.35}, cfg, 1)
		sim.Obs, sim.Events = obs.NewRegistry(), obs.NewEventLog(&buf)
		if err := sim.RunMRHS(3 * m); err != nil {
			t.Fatal(err)
		}
		if err := sim.Events.Flush(); err != nil {
			t.Fatal(err)
		}
		direct := setting == "default"
		want := "block"
		if direct {
			want = "direct"
		}
		var chunks []map[string]any
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			var rec map[string]any
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			if rec["event"] == "chunk" {
				chunks = append(chunks, rec)
			}
		}
		if len(chunks) != 3 {
			t.Fatalf("%s: %d chunk records, want 3", setting, len(chunks))
		}
		for c, rec := range chunks {
			if rec["guesses"] != want {
				t.Errorf("%s chunk %d: guesses %v, want %q", setting, c, rec["guesses"], want)
			}
			blockTol, ran := rec["block_tol"].(float64)
			if ran == direct {
				t.Errorf("%s chunk %d: block_tol %v", setting, c, rec["block_tol"])
			}
			if direct {
				continue
			}
			smallest := 0.0
			if c > 0 {
				smallest = math.Inf(1)
				for _, step := range sim.Records[(c-1)*m+1 : c*m] {
					smallest = min(smallest, step.GuessRelError)
				}
			}
			if wantTol := max(tol, core.GuessTolFactor*smallest); blockTol != wantTol {
				t.Errorf("%s chunk %d: block_tol %v, want %v", setting, c, blockTol, wantTol)
			}
		}
		wantDirect := int64(0)
		if direct {
			wantDirect = 3
		}
		if n := sim.Obs.Counter("core_direct_guess_chunks_total").Value(); n != wantDirect {
			t.Errorf("%s: core_direct_guess_chunks_total %d, want %d", setting, n, wantDirect)
		}
		if (sim.BlockIters == 0) != direct {
			t.Errorf("%s: %d block iterations", setting, sim.BlockIters)
		}
		for _, rec := range sim.Records {
			if rec.Direct != (direct && rec.Step%m == 0) {
				t.Errorf("%s: step %d record Direct %v", setting, rec.Step, rec.Direct)
			}
		}
	}
}
