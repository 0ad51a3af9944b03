package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown -alg fails before anything is built: no particle packing,
// no "system:" line.
func TestUnknownAlgorithmFailsFirst(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var out bytes.Buffer
	err := run([]string{"-n", "30", "-phi", "0.3", "-steps", "1", "-alg", "cholesky"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("-alg cholesky: err = %v, want an unknown algorithm", err)
	}
	if strings.Contains(out.String(), "system:") {
		t.Fatalf("-alg cholesky packed particles before failing:\n%s", out.String())
	}
}

// An unknown -precond fails as early: -precond jacobi names the block
// Jacobi preconditioner, which is gone.
func TestUnknownPreconditionerFailsFirst(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var out bytes.Buffer
	err := run([]string{"-n", "30", "-phi", "0.3", "-steps", "1", "-precond", "jacobi"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown preconditioner") {
		t.Fatalf("-precond jacobi: err = %v, want an unknown preconditioner", err)
	}
	if strings.Contains(out.String(), "system:") {
		t.Fatalf("-precond jacobi packed particles before failing:\n%s", out.String())
	}
}

// A fault run that fails after its recovery checkpoint exists — here on
// an -xyz path it cannot create — still removes the checkpoint.
func TestFailedChaosRunRemovesRecoveryCheckpoint(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out bytes.Buffer
	xyz := filepath.Join(tmp, "missing", "x.xyz")
	err := run([]string{"-n", "30", "-phi", "0.3", "-m", "2", "-steps", "2", "-chaos", "-xyz", xyz}, &out)
	if err == nil {
		t.Fatalf("-xyz %s: want an error\n%s", xyz, out.String())
	}
	if !strings.Contains(out.String(), "recovery checkpoint") {
		t.Fatalf("the run failed before it armed recovery: %v\n%s", err, out.String())
	}
	left, _ := filepath.Glob(filepath.Join(tmp, "mrhs-recover-*"))
	if len(left) > 0 {
		t.Fatalf("a failed -chaos run left %v behind", left)
	}
}

// A trajectory or event log the run cannot write out fails the run,
// including the lines still buffered when it returns.
func TestUnwrittenOutputFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	for _, flag := range []string{"-events", "-xyz"} {
		var out bytes.Buffer
		err := run([]string{"-n", "30", "-phi", "0.3", "-m", "2", "-steps", "2", flag, "/dev/full"}, &out)
		if err == nil || !strings.Contains(err.Error(), "no space") {
			t.Errorf("%s /dev/full: err = %v, want the write's error", flag, err)
		}
	}
}
