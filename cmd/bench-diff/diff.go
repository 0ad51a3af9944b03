package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The comparison core: flatten two BENCH_*.json documents into dotted
// numeric paths, keep the metrics whose direction we understand, and
// grade each current-vs-baseline ratio as PASS / WARN / FAIL.
//
// Direction matters: a latency that triples is a regression, a
// throughput that triples is a win. Everything whose leaf key is not
// in the direction table (configuration echoes, matrix shapes,
// host-calibration numbers, counts) is ignored — comparing them
// would only manufacture noise.

// Direction says which way a metric is supposed to move.
type Direction int

const (
	ignored      Direction = 0
	higherBetter Direction = 1
	lowerBetter  Direction = -1
)

// directions classifies metric leaf keys across every BENCH_*.json
// artifact this repo emits (serve, ensemble).
var directions = map[string]Direction{
	// BENCH_serve.json
	"throughput_rps": higherBetter,
	"speedup":        higherBetter,
	"p50_ms":         lowerBetter,
	"p95_ms":         lowerBetter,
	"p99_ms":         lowerBetter,
	"shed_rate":      lowerBetter,
	"mean_batch":     higherBetter,
}

// Flatten walks a decoded JSON value and collects every numeric leaf
// under its dotted path ("best.p95_ms", "rates.2.throughput_rps").
func Flatten(v any, prefix string, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			Flatten(c, join(prefix, k), out)
		}
	case []any:
		for i, c := range x {
			Flatten(c, join(prefix, strconv.Itoa(i)), out)
		}
	case float64:
		out[prefix] = x
	case bool:
		// Booleans (deterministic, converged) are asserted elsewhere;
		// ratios over them are meaningless.
	}
}

func join(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "." + key
}

func leaf(path string) string {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Finding is one compared metric.
type Finding struct {
	Path   string    `json:"path"`
	Base   float64   `json:"base"`
	Cur    float64   `json:"cur"`
	Ratio  float64   `json:"ratio"` // regression factor: >1 means worse
	Dir    Direction `json:"dir"`
	Status string    `json:"status"` // PASS | WARN | FAIL
}

// Compare grades every classified metric present in both documents.
// The regression factor is cur/base for lower-is-better metrics and
// base/cur for higher-is-better ones, so >1 always means worse:
// >= fail (the only hard condition, default 2x) fails, >= warn
// warns, anything else — including improvements — passes. Metrics
// whose baseline is ~0 are skipped: there is no meaningful ratio
// against zero.
func Compare(base, cur map[string]float64, warn, fail float64) []Finding {
	paths := make([]string, 0, len(base))
	for p := range base {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var out []Finding
	for _, p := range paths {
		dir := directions[leaf(p)]
		if dir == ignored {
			continue
		}
		bv := base[p]
		cv, ok := cur[p]
		if !ok {
			continue
		}
		const eps = 1e-12
		if bv < eps {
			// Zero baselines (no shed at low load) have no ratio. A
			// current value collapsing toward zero still grades: a
			// throughput of ~0 divides to +Inf and fails.
			continue
		}
		f := Finding{Path: p, Base: bv, Cur: cv, Dir: dir}
		if dir == lowerBetter {
			f.Ratio = cv / bv
		} else {
			f.Ratio = bv / cv
		}
		switch {
		case f.Ratio >= fail:
			f.Status = "FAIL"
		case f.Ratio >= warn:
			f.Status = "WARN"
		default:
			f.Status = "PASS"
		}
		out = append(out, f)
	}
	return out
}

// Report summarizes one artifact comparison.
type Report struct {
	File     string    `json:"file"`
	Skipped  bool      `json:"skipped"`
	Reason   string    `json:"reason,omitempty"`
	Findings []Finding `json:"findings,omitempty"`
	Fails    int       `json:"fails"`
	Warns    int       `json:"warns"`
	Passes   int       `json:"passes"`
}

func buildReport(file string, findings []Finding) Report {
	r := Report{File: file, Findings: findings}
	for _, f := range findings {
		switch f.Status {
		case "FAIL":
			r.Fails++
		case "WARN":
			r.Warns++
		default:
			r.Passes++
		}
	}
	return r
}

func (r Report) String() string {
	var b strings.Builder
	if r.Skipped {
		fmt.Fprintf(&b, "SKIP %s: %s\n", r.File, r.Reason)
		return b.String()
	}
	for _, f := range r.Findings {
		if f.Status == "PASS" {
			continue // pass lines would drown the report; counts cover them
		}
		worse := "worse"
		if f.Ratio < 1 {
			worse = "better"
		}
		fmt.Fprintf(&b, "%-4s %s: %.4g -> %.4g (%.2fx %s)\n",
			f.Status, f.Path, f.Base, f.Cur, f.Ratio, worse)
	}
	verdict := "PASS"
	if r.Fails > 0 {
		verdict = "FAIL"
	} else if r.Warns > 0 {
		verdict = "WARN"
	}
	fmt.Fprintf(&b, "%s %s: %d fail, %d warn, %d pass\n",
		verdict, r.File, r.Fails, r.Warns, r.Passes)
	return b.String()
}
