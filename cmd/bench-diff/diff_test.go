package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// loadRepoArtifact flattens a committed BENCH_*.json from the repo
// root (two levels up from this package).
func loadRepoArtifact(t *testing.T, name string) map[string]float64 {
	t.Helper()
	m, err := loadFlat(filepath.Join("..", "..", name))
	if err != nil {
		t.Skipf("no committed %s: %v", name, err)
	}
	return m
}

func statuses(fs []Finding) map[string]string {
	out := map[string]string{}
	for _, f := range fs {
		out[f.Path] = f.Status
	}
	return out
}

// The committed baseline compared against itself must be all-PASS:
// that is the steady state of `make ci` on an untouched tree.
func TestSelfComparePasses(t *testing.T) {
	for _, name := range []string{"BENCH_serve.json", "BENCH_ensemble.json"} {
		base := loadRepoArtifact(t, name)
		for _, f := range Compare(base, base, 1.25, 2.0) {
			if f.Status != "PASS" {
				t.Errorf("%s: self-compare produced %s on %s (ratio %g)", name, f.Status, f.Path, f.Ratio)
			}
		}
		if len(Compare(base, base, 1.25, 2.0)) == 0 {
			t.Errorf("%s: self-compare graded no metrics at all", name)
		}
	}
}

// An injected 3x latency regression in the serve artifact must FAIL
// at the default 2x threshold — the acceptance scenario of the
// regression gate.
func TestInjectedLatencyRegressionFails(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_serve.json"))
	if err != nil {
		t.Skipf("no committed BENCH_serve.json: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	best, ok := doc["best"].(map[string]any)
	if !ok {
		t.Fatal("BENCH_serve.json has no best object")
	}
	for _, k := range []string{"p50_ms", "p95_ms", "p99_ms"} {
		best[k] = best[k].(float64) * 3
	}

	base := map[string]float64{}
	var orig any
	if err := json.Unmarshal(raw, &orig); err != nil {
		t.Fatal(err)
	}
	Flatten(orig, "", base)
	cur := map[string]float64{}
	Flatten(any(doc), "", cur)

	st := statuses(Compare(base, cur, 1.25, 2.0))
	for _, p := range []string{"best.p50_ms", "best.p95_ms", "best.p99_ms"} {
		if st[p] != "FAIL" {
			t.Errorf("3x regression on %s graded %q, want FAIL", p, st[p])
		}
	}
	// The untouched rate points must not be dragged down with it.
	if st["best.throughput_rps"] != "PASS" {
		t.Errorf("untouched best.throughput_rps graded %q, want PASS", st["best.throughput_rps"])
	}
}

func TestCompareDirectionsAndThresholds(t *testing.T) {
	base := map[string]float64{
		"best.p95_ms":         100, // lower is better
		"best.throughput_rps": 200, // higher is better
		"best.shed_rate":      0,   // zero baseline: skipped
		"n":                   18000,
	}
	cases := []struct {
		name string
		cur  map[string]float64
		want map[string]string
	}{
		{
			name: "improvements pass",
			cur:  map[string]float64{"best.p95_ms": 10, "best.throughput_rps": 900, "best.shed_rate": 0.5, "n": 18000},
			want: map[string]string{"best.p95_ms": "PASS", "best.throughput_rps": "PASS"},
		},
		{
			name: "moderate regressions warn",
			cur:  map[string]float64{"best.p95_ms": 150, "best.throughput_rps": 140, "n": 18000},
			want: map[string]string{"best.p95_ms": "WARN", "best.throughput_rps": "WARN"},
		},
		{
			name: "large regressions fail",
			cur:  map[string]float64{"best.p95_ms": 300, "best.throughput_rps": 50, "n": 18000},
			want: map[string]string{"best.p95_ms": "FAIL", "best.throughput_rps": "FAIL"},
		},
		{
			name: "throughput collapse to zero fails",
			cur:  map[string]float64{"best.p95_ms": 100, "best.throughput_rps": 0, "n": 18000},
			want: map[string]string{"best.throughput_rps": "FAIL"},
		},
	}
	for _, tc := range cases {
		st := statuses(Compare(base, tc.cur, 1.25, 2.0))
		for p, want := range tc.want {
			if st[p] != want {
				t.Errorf("%s: %s graded %q, want %q", tc.name, p, st[p], want)
			}
		}
		if _, graded := st["best.shed_rate"]; graded {
			t.Errorf("%s: zero-baseline shed_rate should be skipped", tc.name)
		}
		if _, graded := st["n"]; graded {
			t.Errorf("%s: unclassified config echo n should be ignored", tc.name)
		}
	}
}

func TestDiffOneSkipsMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "BENCH_new.json")
	if err := os.WriteFile(cur, []byte(`{"best":{"p95_ms":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := diffOne(filepath.Join(dir, "missing", "BENCH_new.json"), cur, 1.25, 2.0)
	if !rep.Skipped || rep.Fails != 0 {
		t.Fatalf("missing baseline: got %+v, want clean skip", rep)
	}
}
