// Command bench-diff is the perf-regression gate: it compares freshly
// produced BENCH_*.json artifacts against committed baselines with
// per-metric, direction-aware tolerances and emits a pass/warn/fail
// report.
//
// The repo's whole argument is measured — serve throughput, ensemble
// and shard scaling — so a PR that silently
// halves BENCH_serve.json's best throughput is as broken as one that
// fails a unit test. bench-diff makes that visible: metrics that
// regress by more than -warn (default 1.25x) warn, more than -fail
// (default 2x) fail the run. Improvements and config echoes never
// fail anything.
//
// Baselines live in -baseline-dir under the same file names; `make
// bench-diff` populates that directory from git HEAD so the committed
// artifact is the reference. A missing baseline (new artifact, no
// git) skips that file cleanly — the gate is advisory by
// construction, never an obstacle to adding a new benchmark.
//
// Examples:
//
//	bench-diff -baseline-dir .bench-baseline BENCH_serve.json
//	bench-diff -fail 2 -warn 1.25 BENCH_serve.json BENCH_shard.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		baselineDir = flag.String("baseline-dir", ".bench-baseline", "directory holding baseline artifacts under the same names")
		warn        = flag.Float64("warn", 1.25, "regression factor that warns")
		failAt      = flag.Float64("fail", 2.0, "regression factor that fails (the only hard condition)")
		jsonOut     = flag.String("json", "", "also write the full machine-readable report here")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "bench-diff: no artifacts given; usage: bench-diff [flags] BENCH_x.json ...")
		os.Exit(2)
	}

	var reports []Report
	fails := 0
	for _, cur := range flag.Args() {
		rep := diffOne(filepath.Join(*baselineDir, filepath.Base(cur)), cur, *warn, *failAt)
		fmt.Print(rep.String())
		fails += rep.Fails
		reports = append(reports, rep)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if fails > 0 {
		fmt.Printf("bench-diff: %d metric(s) regressed past the %.2gx fail threshold\n", fails, *failAt)
		os.Exit(1)
	}
}

// diffOne compares one artifact against its baseline. Either file
// missing (or unparsable baseline) skips with an explanation rather
// than failing: absent baselines are the normal state of a fresh
// checkout or a brand-new benchmark.
func diffOne(basePath, curPath string, warn, fail float64) Report {
	base, err := loadFlat(basePath)
	if err != nil {
		return Report{File: curPath, Skipped: true, Reason: "no baseline (" + err.Error() + ")"}
	}
	cur, err := loadFlat(curPath)
	if err != nil {
		return Report{File: curPath, Skipped: true, Reason: "no current artifact (" + err.Error() + ")"}
	}
	return buildReport(curPath, Compare(base, cur, warn, fail))
}

func loadFlat(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	Flatten(v, "", out)
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-diff:", err)
	os.Exit(2)
}
