package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write creates path under dir (with its parents) holding content.
func write(t *testing.T, dir, path, content string) string {
	t.Helper()
	full := filepath.Join(dir, path)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return full
}

// TestCheckCommands: in fenced code blocks, a make target the Makefile
// defines, a flag the command declares and an existing directory pass;
// a deleted target, a deleted flag (also on a continuation line) and a
// deleted command or example, with flags or without, are each reported
// once, with the command. Flags of a command outside cmd/ are not
// checked, nor is prose or what follows `|`, `&` or `#`.
func TestCheckCommands(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "Makefile", ".PHONY: ci bench-serve\nci: vet\n\tgo vet ./...\nbench-serve:\n\tgo run ./cmd/sim\n")
	write(t, dir, "cmd/sim/main.go", "package main\n\nimport \"flag\"\n\nvar (\n\tn = flag.Int(\"n\", 1, \"\")\n\tphi = flag.Float64(\"phi\", 0.3, \"\")\n\tout = flag.String(\"obs-json\", \"\", \"\")\n)\n")
	write(t, dir, "examples/quickstart/main.go", "package main\n")

	good := write(t, dir, "GOOD.md", strings.Join([]string{
		"Prose may say `make bench-recycle` or go run ./cmd/sim -recycle 8.",
		"```sh",
		"make ci bench-serve   # make gone in a comment",
		"go run ./cmd/sim -n 100 -phi=0.4 \\",
		"    -obs-json /tmp/o.json | grep -recycle",
		"go run ./cmd/sim -n 5 & curl -s localhost:1 -recycle",
		"go run ./examples/quickstart -whatever",
		"go run ./examples/quickstart/",
		"```",
	}, "\n"))
	if p := checkCommands(dir, good); len(p) != 0 {
		t.Errorf("clean document reported: %q", p)
	}

	stale := write(t, dir, "STALE.md", strings.Join([]string{
		"```sh",
		"make bench-recycle",
		"go run ./cmd/sim -n 300 \\",
		"    -recycle 8",
		"go run ./cmd/recycle-bench -json out.json",
		"go run ./cmd/recycle-bench",
		"go run ./examples/ensemble",
		"go run ./cmd/sim/main.go",
		"```",
	}, "\n"))
	got := checkCommands(dir, stale)
	want := []string{
		stale + `: "make bench-recycle": no Makefile target bench-recycle`,
		stale + `: "go run ./cmd/sim -n 300      -recycle 8": ./cmd/sim declares no flag -recycle`,
		stale + `: "go run ./cmd/recycle-bench -json out.json": no directory ./cmd/recycle-bench`,
		stale + `: "go run ./cmd/recycle-bench": no directory ./cmd/recycle-bench`,
		stale + `: "go run ./examples/ensemble": no directory ./examples/ensemble`,
		stale + `: "go run ./cmd/sim/main.go": no directory ./cmd/sim/main.go`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %q, want %d problems", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("problem %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCheckTreePaths: a backticked internal/, cmd/ or examples/ path
// on disk passes, as do globs and placeholders; one that is gone is
// reported with its line.
func TestCheckTreePaths(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "internal/core/core.go", "package core\n")
	write(t, dir, "cmd/sim/main.go", "package main\n")
	write(t, dir, "examples/quickstart/main.go", "package main\n")

	good := write(t, dir, "GOOD.md", strings.Join([]string{
		"`internal/core`, `internal/core/core.go`, `cmd/sim` and `examples/quickstart/`",
		"`internal/<pkg>`, `cmd/*-bench`, `examples/<name>` and bench/ensemble",
	}, "\n"))
	if p := checkTreePaths(dir, good); len(p) != 0 {
		t.Errorf("clean document reported: %q", p)
	}

	stale := write(t, dir, "STALE.md", strings.Join([]string{
		"`internal/core/ensemble.go`",
		"the `examples/ensemble` program and `cmd/sim`",
	}, "\n"))
	got := checkTreePaths(dir, stale)
	want := []string{
		stale + `:1: path "internal/core/ensemble.go" is not in the tree`,
		stale + `:2: path "examples/ensemble" is not in the tree`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %q, want %d problems", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("problem %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCheckExperiments: a fenced `go run ./cmd/experiments -run <id>`
// must name a registered id (or all), and the artifact must hold one
// `--- <id>:` section per registered id — a missing, repeated or
// unregistered section is reported.
func TestCheckExperiments(t *testing.T) {
	dir := t.TempDir()
	ids := []string{"ext-symmetric", "fig8", "table1"}

	good := write(t, dir, "GOOD.md", strings.Join([]string{
		"Prose may say go run ./cmd/experiments -run fig9.",
		"```sh",
		"go run ./cmd/experiments -run all > experiments_output.txt",
		"go run ./cmd/experiments -run fig8 -threads 2   # -run fig9 in a comment",
		"go run ./cmd/experiments --run=ext-symmetric \\",
		"    -matrix-nb 150000",
		"go run ./cmd/other -run fig9",
		"```",
	}, "\n"))
	artifact := write(t, dir, "out.txt", "--- ext-symmetric: a ---\n== t ==\n--- fig8: b ---\n--- table1: c ---\n")
	if p := checkExperiments(ids, artifact, good); len(p) != 0 {
		t.Errorf("clean document and artifact reported: %q", p)
	}

	stale := write(t, dir, "STALE.md", "```sh\ngo run ./cmd/experiments -run fig9\ngo run ./cmd/experiments -steps 4 -run=table9\n```\n")
	staleOut := write(t, dir, "stale.txt", "--- fig8: b ---\n--- fig8: again ---\n--- fig9: gone ---\n--- table1: c ---\n")
	got := checkExperiments(ids, staleOut, stale)
	want := []string{
		stale + `: "go run ./cmd/experiments -run fig9": no registered experiment fig9`,
		stale + `: "go run ./cmd/experiments -steps 4 -run=table9": no registered experiment table9`,
		staleOut + `: section fig9 is not a registered experiment`,
		staleOut + `: 0 sections for experiment ext-symmetric, want 1`,
		staleOut + `: 2 sections for experiment fig8, want 1`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %q, want %d problems", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("problem %d = %q, want %q", i, got[i], want[i])
		}
	}
}
