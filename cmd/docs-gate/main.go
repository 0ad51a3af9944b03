// Command docs-gate is the CI documentation gate. It fails (exit 1)
// when any of five classes of documentation drift appears:
//
//  1. An internal/ package has no package comment — every package
//     must say what it implements and which part of the paper it
//     maps to (ARCHITECTURE.md holds the full map).
//  2. A relative link in the top-level markdown docs (README.md,
//     DESIGN.md, EXPERIMENTS.md, ARCHITECTURE.md, ROADMAP.md) points
//     at a file that does not exist.
//  3. A backticked `internal/<pkg>`, `cmd/<name>` or `examples/<name>`
//     path in README.md or ARCHITECTURE.md — the two files that map the
//     tree as it is — names a package or file that is not on disk.
//  4. A fenced command in README.md, DESIGN.md, EXPERIMENTS.md or
//     ARCHITECTURE.md names a `make` target the Makefile lacks, a
//     `go run ./<dir>` directory that does not exist, or a `-flag` that
//     its `go run ./cmd/<name>` does not declare.
//  5. A fenced `go run ./cmd/experiments` command passes `-run` an id
//     the registry lacks, or experiments_output.txt does not hold
//     exactly one `--- <id>:` section per registered experiment.
//
// Run from the repository root, normally via `make docs-gate` (part
// of `make ci`).
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var problems []string
	problems = append(problems, checkPackageComments("internal")...)
	problems = append(problems, checkLinks(
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "ARCHITECTURE.md", "ROADMAP.md")...)
	problems = append(problems, checkTreePaths(".", "README.md", "ARCHITECTURE.md")...)
	problems = append(problems, checkCommands(".",
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "ARCHITECTURE.md")...)
	problems = append(problems, checkExperiments(experiments.IDs(), "experiments_output.txt",
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "ARCHITECTURE.md")...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docs-gate:", p)
		}
		fmt.Fprintf(os.Stderr, "docs-gate: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docs-gate: ok")
}

// checkPackageComments walks every package directory under root and
// requires at least one non-test file with a doc comment on its
// package clause.
func checkPackageComments(root string) []string {
	var problems []string
	dirs := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("walking %s: %v", root, err)}
	}

	var sorted []string
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)

	fset := token.NewFileSet()
	for _, dir := range sorted {
		documented := false
		for _, file := range dirs[dir] {
			f, err := parser.ParseFile(fset, file, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", file, err))
				continue
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			problems = append(problems, fmt.Sprintf("%s: package has no package comment", dir))
		}
	}
	return problems
}

// mdLink matches inline markdown links and images; the capture is the
// target. Reference-style links are rare enough here not to matter.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkLinks verifies that every relative link target in the given
// markdown files exists on disk. Absolute URLs and pure in-page
// anchors are skipped; a #fragment on a relative target is stripped
// before the existence check.
func checkLinks(files ...string) []string {
	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			if os.IsNotExist(err) {
				continue // optional doc; the package-comment gate is the mandatory half
			}
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				if j := strings.IndexByte(target, '#'); j >= 0 {
					target = target[:j]
				}
				if target == "" {
					continue
				}
				rel := filepath.FromSlash(target)
				if !filepath.IsAbs(rel) {
					rel = filepath.Join(filepath.Dir(file), rel)
				}
				if _, err := os.Stat(rel); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: broken relative link %q", file, i+1, m[1]))
				}
			}
		}
	}
	return problems
}

// treePath matches a backticked path under internal/, cmd/ or
// examples/, or a backticked root-level BENCH_<name>.json artifact.
// Globs and placeholders (`cmd/*-bench`, `internal/<pkg>`,
// `BENCH_*.json`) fall outside the character class and are not paths
// to check.
var treePath = regexp.MustCompile("`((?:internal|cmd|examples)/[A-Za-z0-9_./-]+|BENCH_[A-Za-z0-9_]+\\.json)`")

// checkTreePaths verifies that every backticked internal/, cmd/ or
// examples/ path and BENCH_*.json artifact in the given markdown files
// exists under root: a package map that still lists a deleted package,
// or a runbook that quotes a deleted artifact, is drift.
func checkTreePaths(root string, files ...string) []string {
	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range treePath.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(m[1]))); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: path %q is not in the tree", file, i+1, m[1]))
				}
			}
		}
	}
	return problems
}

// checkCommands verifies the commands in the fenced code blocks of the
// given markdown files against the tree at root: the targets of a
// `make` line must be defined in root's Makefile, the directory of a
// `go run ./<dir>` line must exist, and the -flags of a `go run
// ./cmd/<name>` line must be declared by a flag.*("<flag>", …) call in
// that command's sources. Continuation lines are joined, and what
// follows the first `|`, `&` or `#` of a command is not part of it.
func checkCommands(root string, files ...string) []string {
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	for _, file := range files {
		commands, err := fencedCommands(file)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		for _, command := range commands {
			words := strings.Fields(command)
			switch {
			case len(words) > 1 && words[0] == "make":
				for _, w := range words[1:] {
					if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w) + `:`).Match(mk) {
						problems = append(problems, fmt.Sprintf("%s: %q: no Makefile target %s", file, command, w))
					}
				}
			case len(words) > 2 && words[0] == "go" && words[1] == "run" && strings.HasPrefix(words[2], "./"):
				if fi, err := os.Stat(filepath.Join(root, words[2])); err != nil || !fi.IsDir() {
					problems = append(problems, fmt.Sprintf("%s: %q: no directory %s", file, command, words[2]))
					continue
				}
				if !strings.HasPrefix(words[2], "./cmd/") {
					continue
				}
				var code []byte
				srcs, _ := filepath.Glob(filepath.Join(root, words[2], "*.go"))
				for _, src := range srcs {
					data, _ := os.ReadFile(src) // an unreadable source declares no flags
					code = append(code, data...)
				}
				for _, w := range words[3:] {
					f, _, _ := strings.Cut(strings.TrimLeft(w, "-"), "=")
					if w[0] == '-' && !regexp.MustCompile(`flag\.\w+\("`+regexp.QuoteMeta(f)+`"`).Match(code) {
						problems = append(problems, fmt.Sprintf("%s: %q: %s declares no flag -%s", file, command, words[2], f))
					}
				}
			}
		}
	}
	return problems
}

// fencedCommands returns the lines inside the fenced code blocks of a
// markdown file, continuation lines joined and what follows the first
// `|`, `&` or `#` of a line cut.
func fencedCommands(file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var commands []string
	blocks := strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "```")
	for k := 1; k < len(blocks); k += 2 { // the odd pieces are inside fences
		for _, command := range strings.Split(blocks[k], "\n") {
			if j := strings.IndexAny(command, "|&#"); j >= 0 {
				command = command[:j]
			}
			commands = append(commands, command)
		}
	}
	return commands, nil
}

// sectionHeader matches the line RunAll prints before each experiment.
var sectionHeader = regexp.MustCompile(`(?m)^--- ([a-z0-9-]+): `)

// checkExperiments verifies, against the registered experiment ids,
// that every `-run <id>` of a fenced `go run ./cmd/experiments`
// command in the given markdown files names one of them (or `all`),
// and that the committed artifact holds exactly one `--- <id>:`
// section per id — a registry entry the artifact lacks means the
// artifact predates it.
func checkExperiments(ids []string, artifact string, files ...string) []string {
	known := map[string]bool{"all": true}
	for _, id := range ids {
		known[id] = true
	}
	var problems []string
	for _, file := range files {
		commands, err := fencedCommands(file)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		for _, command := range commands {
			words := strings.Fields(command)
			if len(words) < 3 || words[0] != "go" || words[1] != "run" || words[2] != "./cmd/experiments" {
				continue
			}
			args := words[3:]
			for i, w := range args {
				name, id, inline := strings.Cut(strings.TrimLeft(w, "-"), "=")
				if w[0] != '-' || name != "run" {
					continue
				}
				if !inline {
					if i+1 == len(args) {
						continue
					}
					id = args[i+1]
				}
				if !known[id] {
					problems = append(problems, fmt.Sprintf("%s: %q: no registered experiment %s", file, command, id))
				}
			}
		}
	}

	data, err := os.ReadFile(artifact)
	if err != nil {
		return append(problems, err.Error())
	}
	sections := map[string]int{}
	for _, m := range sectionHeader.FindAllStringSubmatch(string(data), -1) {
		sections[m[1]]++
		if !known[m[1]] {
			problems = append(problems, fmt.Sprintf("%s: section %s is not a registered experiment", artifact, m[1]))
		}
	}
	for _, id := range ids {
		if n := sections[id]; n != 1 {
			problems = append(problems, fmt.Sprintf("%s: %d sections for experiment %s, want 1", artifact, n, id))
		}
	}
	return problems
}
