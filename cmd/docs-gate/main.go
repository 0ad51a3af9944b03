// Command docs-gate is the CI documentation gate. It fails (exit 1)
// when any of three classes of documentation drift appears:
//
//  1. An internal/ package has no package comment — every package
//     must say what it implements and which part of the paper it
//     maps to (ARCHITECTURE.md holds the full map).
//  2. A relative link in the top-level markdown docs (README.md,
//     DESIGN.md, EXPERIMENTS.md, ARCHITECTURE.md, ROADMAP.md) points
//     at a file that does not exist.
//  3. A backticked `internal/<pkg>` or `cmd/<name>` path in README.md
//     or ARCHITECTURE.md — the two files that map the tree as it is —
//     names a package or file that is not on disk.
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
)

func main() {
	var problems []string
	problems = append(problems, checkPackageComments("internal")...)
	problems = append(problems, checkLinks(
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "ARCHITECTURE.md", "ROADMAP.md")...)
	problems = append(problems, checkTreePaths("README.md", "ARCHITECTURE.md")...)

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

// treePath matches a backticked path under internal/ or cmd/. Globs
// and placeholders (`cmd/*-bench`, `internal/<pkg>`) fall outside the
// character class and are not paths to check.
var treePath = regexp.MustCompile("`((?:internal|cmd)/[A-Za-z0-9_./-]+)`")

// checkTreePaths verifies that every backticked internal/ or cmd/
// path in the given markdown files exists on disk: a package map that
// still lists a deleted package is drift.
func checkTreePaths(files ...string) []string {
	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range treePath.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(filepath.FromSlash(m[1])); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: path %q is not in the tree", file, i+1, m[1]))
				}
			}
		}
	}
	return problems
}
