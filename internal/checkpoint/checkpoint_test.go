package checkpoint_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/particles"
	"repro/internal/sd"
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
// process", run 4 more — identical final positions.
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

	// Straight run.
	straight := sd.New(base.Clone(), hydro.Options{Phi: phi}, core.Config{
		Dt: 2, M: 4, Seed: seed, Tol: 1e-11,
	}, 1)
	if err := straight.RunMRHS(total); err != nil {
		t.Fatal(err)
	}

	// Interrupted run.
	first := sd.New(base.Clone(), hydro.Options{Phi: phi}, core.Config{
		Dt: 2, M: 4, Seed: seed, Tol: 1e-11,
	}, 1)
	if err := first.RunMRHS(half); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, checkpoint.FromSystem(first.System(), first.StepIndex(), seed)); err != nil {
		t.Fatal(err)
	}

	// "New process": restore and continue.
	st, err := checkpoint.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := sd.New(st.System(), hydro.Options{Phi: phi}, core.Config{
		Dt: 2, M: 4, Seed: st.Seed, Tol: 1e-11,
	}, 1)
	resumed.SkipTo(st.Step)
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
