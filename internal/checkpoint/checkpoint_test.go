package checkpoint_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/particles"
	"repro/internal/sd"
	"repro/internal/solver"
)

func TestRoundTrip(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 50, Phi: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := checkpoint.FromSystem(sys, 7, 42)
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	back, err := checkpoint.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Step != 7 || back.Seed != 42 {
		t.Fatalf("metadata lost: %+v", back)
	}
	rsys := back.System()
	if rsys.N != sys.N || rsys.Box != sys.Box || rsys.Phi != sys.Phi {
		t.Fatal("system metadata lost")
	}
	for i := range sys.Pos {
		if rsys.Pos[i] != sys.Pos[i] || rsys.Radius[i] != sys.Radius[i] {
			t.Fatal("particle data lost")
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 10, Phi: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := checkpoint.FromSystem(sys, 0, 1)
	sys.Pos[0][0] += 99
	if st.Pos[0][0] == sys.Pos[0][0] {
		t.Fatal("snapshot aliases the live system")
	}
	rsys := st.System()
	rsys.Pos[1][0] += 99
	if st.Pos[1][0] == rsys.Pos[1][0] {
		t.Fatal("restored system aliases the snapshot")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := checkpoint.Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	st := &checkpoint.State{Version: 99, Pos: nil, Radius: nil}
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Load(&buf); err == nil {
		t.Fatal("expected version error")
	}
}

func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	sys, err := particles.New(particles.Options{N: 20, Phi: 0.15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.SaveFile(path, checkpoint.FromSystem(sys, 3, 9)); err != nil {
		t.Fatal(err)
	}
	back, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Step != 3 {
		t.Fatal("file round trip lost data")
	}
	// Overwrite works too.
	if err := checkpoint.SaveFile(path, checkpoint.FromSystem(sys, 4, 9)); err != nil {
		t.Fatal(err)
	}
	back, err = checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Step != 4 {
		t.Fatal("overwrite failed")
	}
}

// TestResumeReproducesTrajectory is the contract that matters: run 8
// steps straight versus run 4, checkpoint, restore in a "new
// process", run 4 more — identical final positions. The checkpoint
// falls on a chunk boundary, so where a chunk's guesses come from a
// block solve — under NoPrecond, unpreconditioned or through the IC(0)
// BlockPrecond hands it — the resumed run's first block solve stops at
// the tolerance the straight run's previous chunk set, which only the
// snapshot's GuessErr carries across.
func TestResumeReproducesTrajectory(t *testing.T) {
	const (
		seed  = uint64(77)
		phi   = 0.3
		total = 8
		half  = 4
	)
	base, err := particles.New(particles.Options{N: 40, Phi: phi, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blockIC0 := func(a *bcrs.Matrix) solver.Preconditioner {
		ic, err := solver.NewIC0(a)
		if err != nil {
			t.Fatal(err)
		}
		return ic
	}
	for _, tc := range []struct {
		name           string
		precond, block func(*bcrs.Matrix) solver.Preconditioner
	}{
		{"ic0", nil, nil},
		{"none", core.NoPrecond, nil},
		{"ic0-block", core.NoPrecond, blockIC0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{Dt: 2, M: 4, Seed: seed, Tol: 1e-11, Precond: tc.precond, BlockPrecond: tc.block}

			// Straight run.
			straight := sd.New(base.Clone(), hydro.Options{Phi: phi}, cfg, 1)
			if err := straight.RunMRHS(total); err != nil {
				t.Fatal(err)
			}

			// Interrupted run.
			first := sd.New(base.Clone(), hydro.Options{Phi: phi}, cfg, 1)
			if err := first.RunMRHS(half); err != nil {
				t.Fatal(err)
			}
			snap := checkpoint.FromSystem(first.System(), first.StepIndex(), seed)
			snap.GuessErr = first.GuessErr()
			var buf bytes.Buffer
			if err := checkpoint.Save(&buf, snap); err != nil {
				t.Fatal(err)
			}

			// "New process": restore and continue.
			st, err := checkpoint.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = st.Seed
			resumed := sd.New(st.System(), hydro.Options{Phi: phi}, cfg, 1)
			resumed.SkipTo(st.Step)
			resumed.SetGuessErr(st.GuessErr)
			if err := resumed.RunMRHS(total - st.Step); err != nil {
				t.Fatal(err)
			}

			a, b := straight.System(), resumed.System()
			var worst float64
			for i := range a.Pos {
				if d := a.Pos[i].Sub(b.Pos[i]).Norm(); d > worst {
					worst = d
				}
			}
			if worst != 0 {
				t.Fatalf("resumed trajectory diverged by %v", worst)
			}
		})
	}
}

func TestSaveFileBadDirectory(t *testing.T) {
	sys, err := particles.New(particles.Options{N: 5, Phi: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.SaveFile("/nonexistent-dir-xyz/run.ckpt", checkpoint.FromSystem(sys, 0, 1)); err == nil {
		t.Fatal("expected error for unwritable directory")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := checkpoint.LoadFile("/nonexistent-dir-xyz/missing.ckpt"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// stepFrom builds the simulation a resumed run builds from st — the
// system, its volume fraction, the seed and the step — and takes one
// step of Algorithm 1 under the default window.
func stepFrom(st *checkpoint.State) error {
	sim := sd.New(st.System(), hydro.Options{Phi: st.Phi}, core.Config{Dt: 2, M: 4, Seed: st.Seed}, 1)
	sim.SkipTo(st.Step)
	return sim.RunOriginal(1)
}

// hostile is a snapshot no run can step from, by the field that is
// wrong.
type hostile struct {
	name string
	st   *checkpoint.State
}

// hostileSnapshots returns a valid snapshot of eight particles and
// copies of it with one field wrong each, those a resumed run used to
// panic on first.
func hostileSnapshots(t testing.TB) (*checkpoint.State, []hostile) {
	sys, err := particles.New(particles.Options{N: 8, Phi: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(s *checkpoint.State)) *checkpoint.State {
		s := checkpoint.FromSystem(sys, 3, 5)
		f(s)
		return s
	}
	nan, inf := math.NaN(), math.Inf(1)
	return checkpoint.FromSystem(sys, 3, 5), []hostile{
		{"box 0", edit(func(s *checkpoint.State) { s.Box = 0 })},
		{"box NaN", edit(func(s *checkpoint.State) { s.Box = nan })},
		{"step -3", edit(func(s *checkpoint.State) { s.Step = -3 })},
		{"no particles", edit(func(s *checkpoint.State) { s.Pos, s.Radius = nil, nil })},
		{"box -5", edit(func(s *checkpoint.State) { s.Box = -5 })},
		{"box +Inf", edit(func(s *checkpoint.State) { s.Box = inf })},
		{"radius NaN", edit(func(s *checkpoint.State) { s.Radius[2] = nan })},
		{"radius 0", edit(func(s *checkpoint.State) { s.Radius[0] = 0 })},
		{"radius -1", edit(func(s *checkpoint.State) { s.Radius[7] = -1 })},
		{"radius +Inf", edit(func(s *checkpoint.State) { s.Radius[1] = inf })},
		{"position NaN", edit(func(s *checkpoint.State) { s.Pos[3][1] = nan })},
		{"position -Inf", edit(func(s *checkpoint.State) { s.Pos[5][2] = -inf })},
		{"phi NaN", edit(func(s *checkpoint.State) { s.Phi = nan })},
		{"phi -0.1", edit(func(s *checkpoint.State) { s.Phi = -0.1 })},
		{"phi 0.64", edit(func(s *checkpoint.State) { s.Phi = 0.64 })},
		{"guess error -1e-4", edit(func(s *checkpoint.State) { s.GuessErr = -1e-4 })},
		{"guess error NaN", edit(func(s *checkpoint.State) { s.GuessErr = nan })},
		{"guess error +Inf", edit(func(s *checkpoint.State) { s.GuessErr = inf })},
		{"8 positions, 7 radii", edit(func(s *checkpoint.State) { s.Radius = s.Radius[:7] })},
		{"no positions, 8 radii", edit(func(s *checkpoint.State) { s.Pos = s.Pos[:0] })},
	}
}

// encode writes s with gob directly: Save refuses some of what Load must
// refuse too.
func encode(t testing.TB, s *checkpoint.State) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsHostileSnapshots: a snapshot that decodes but that no
// run can step from is ErrCorrupt, with the detail, where the stepper
// used to panic on it — in the neighbor search (box 0, no particles),
// in the displacement (box NaN) or in Runner.SkipTo (step -3). A
// snapshot Load accepts is stepped, so an accepted hostile one fails
// the test the way it used to fail a resumed run. The valid snapshot
// they were made from loads and steps.
func TestLoadRejectsHostileSnapshots(t *testing.T) {
	valid, hostile := hostileSnapshots(t)
	st, err := checkpoint.Load(bytes.NewReader(encode(t, valid)))
	if err != nil {
		t.Fatalf("valid snapshot: %v", err)
	}
	if err := stepFrom(st); err != nil {
		t.Fatalf("valid snapshot: %v", err)
	}
	for _, h := range hostile {
		st, err := checkpoint.Load(bytes.NewReader(encode(t, h.st)))
		if errors.Is(err, checkpoint.ErrCorrupt) {
			t.Logf("%s: %v", h.name, err)
			continue
		}
		t.Errorf("%s: Load returned %v, want ErrCorrupt", h.name, err)
		if err == nil {
			t.Logf("%s: stepping from it gives %v", h.name, stepFrom(st))
		}
	}
}

// FuzzLoad decodes arbitrary bytes as a snapshot: Load returns, and a
// state it accepts with at most 64 particles builds a simulation that
// takes one step without a panic (an error is an answer).
func FuzzLoad(f *testing.F) {
	valid, hostile := hostileSnapshots(f)
	f.Add(encode(f, valid))
	for _, h := range hostile {
		f.Add(encode(f, h.st))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := checkpoint.Load(bytes.NewReader(data))
		if err != nil || len(st.Pos) > 64 {
			return
		}
		_ = stepFrom(st)
	})
}
