package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig() Config {
	return Config{
		SizeSmall: 60, SizeMedium: 120, SizeLarge: 200,
		MatrixNB: 1500, Steps: 6, Seed: 5, Threads: 1,
	}.WithDefaults()
}

func TestIDsRegistered(t *testing.T) {
	want := []string{
		"ext-ensemble", "ext-techniques",
		"fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	for _, id := range got {
		if Describe(id) == "" {
			t.Fatalf("no description for %s", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", tinyConfig()); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a    bb", "333  4", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGenMatrixHitsTargetDensity(t *testing.T) {
	a, sys, cutoff, err := GenMatrix(MatSpec{Name: "t", TargetBPR: 10, Phi: 0.4}, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bpr := a.BlocksPerRow(); math.Abs(bpr-10) > 1 {
		t.Fatalf("blocks/row %v, want ~10 (cutoff %v)", bpr, cutoff)
	}
	if sys.N != 800 || len(sys.Pos) != 800 {
		t.Fatal("system not returned")
	}
	if !a.IsSymmetric(1e-9) {
		t.Fatal("generated matrix must be symmetric")
	}
}

func TestTable1(t *testing.T) {
	tabs, err := Run("table1", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 3 {
		t.Fatalf("table1 shape wrong")
	}
	// Densities must be ordered mat1 < mat2 < mat3.
	var bprs []float64
	for _, row := range tabs[0].Rows {
		v, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		bprs = append(bprs, v)
	}
	if !(bprs[0] < bprs[1] && bprs[1] < bprs[2]) {
		t.Fatalf("densities not ordered: %v", bprs)
	}
}

func TestFig1(t *testing.T) {
	tabs, err := Run("fig1", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 14 {
		t.Fatalf("fig1 rows %d", len(tabs[0].Rows))
	}
}

func TestTable4(t *testing.T) {
	tabs, err := Run("table4", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 15 {
		t.Fatalf("table4 rows %d, want 15", len(tabs[0].Rows))
	}
}

func TestFig5GuessErrorGrows(t *testing.T) {
	// The sqrt-of-time growth is a statement about the expectation;
	// per-step values are noisy for small systems (each step's noise
	// vector projects differently onto the matrix drift). Use a
	// moderate system and compare half-means.
	cfg := tinyConfig()
	cfg.SizeSmall = 250
	cfg.Steps = 12
	tabs, err := Run("fig5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) < 6 {
		t.Fatalf("fig5 rows %d", len(rows))
	}
	var firstHalf, secondHalf float64
	h := len(rows) / 2
	for i, row := range rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("bad error cell %q", row[1])
		}
		if i < h {
			firstHalf += v
		} else {
			secondHalf += v
		}
	}
	firstHalf /= float64(h)
	secondHalf /= float64(len(rows) - h)
	if secondHalf <= firstHalf {
		t.Fatalf("mean guess error did not grow: %v .. %v", firstHalf, secondHalf)
	}
}

func TestTable5ShowsReduction(t *testing.T) {
	tabs, err := Run("table5", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// With guesses must not exceed without, per occupancy, on
	// average over the printed steps.
	for col := 0; col < 3; col++ {
		var w, wo float64
		for _, row := range rows {
			a, _ := strconv.ParseFloat(row[1+col], 64)
			b, _ := strconv.ParseFloat(row[4+col], 64)
			w += a
			wo += b
		}
		if w >= wo {
			t.Fatalf("column %d: with-guess iterations %v not below without %v", col, w, wo)
		}
	}
}

func TestTable6SpeedupPositive(t *testing.T) {
	cfg := tinyConfig()
	tabs, err := Run("table6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	// The Average row exists and every cell parses.
	found := false
	for _, row := range tab.Rows {
		if row[0] == "Average" {
			found = true
			for _, c := range row[1:] {
				if c == "-" {
					continue
				}
				if v, err := strconv.ParseFloat(c, 64); err != nil || v <= 0 {
					t.Fatalf("bad Average cell %q", c)
				}
			}
		}
	}
	if !found {
		t.Fatal("no Average row")
	}
}

func TestTable3BothModels(t *testing.T) {
	cfg := tinyConfig()
	cfg.ClusterNB = 600
	tabs, err := Run("table3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 2 {
		t.Fatalf("table3 rows %d", len(rows))
	}
	// Each row: nodes + 3 hw + 3 cal + 3 paper columns.
	if len(rows[0]) != 10 {
		t.Fatalf("table3 columns %d", len(rows[0]))
	}
}

func TestFig4Flattens(t *testing.T) {
	cfg := tinyConfig()
	cfg.ClusterNB = 600
	tabs, err := Run("fig4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	first, _ := strconv.ParseFloat(rows[0][2], 64)          // mat1 r(16) at p=1
	last, _ := strconv.ParseFloat(rows[len(rows)-1][2], 64) // at p=64
	if !(first > 1 && last < first) {
		t.Fatalf("fig4 did not flatten: %v .. %v", first, last)
	}
}

func TestExtTechniques(t *testing.T) {
	cfg := tinyConfig()
	cfg.SizeMedium = 120
	cfg.Steps = 6
	tabs, err := Run("ext-techniques", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 4 {
		t.Fatalf("techniques rows %d", len(rows))
	}
	cold, _ := strconv.ParseFloat(rows[0][1], 64)
	ic, _ := strconv.ParseFloat(rows[1][1], 64)
	mrhs, _ := strconv.ParseFloat(rows[2][1], 64)
	both, _ := strconv.ParseFloat(rows[3][1], 64)
	if !(ic < cold && mrhs < cold && both < mrhs) {
		t.Fatalf("techniques did not beat cold: cold=%v ic=%v mrhs=%v mrhs+ic=%v", cold, ic, mrhs, both)
	}
	// Every row carries its time beside its iterations.
	for _, row := range rows {
		if ms, err := strconv.ParseFloat(row[4], 64); err != nil || !(ms > 0) {
			t.Fatalf("row %q has no ms/step: %q", row[0], row[4])
		}
	}
}

// TestExtEnsemble: one row per member count, a fused kernel at least
// K wide and a finite positive member speed-up. The experiment itself
// fails when a member's bits drift from its lone solve's.
func TestExtEnsemble(t *testing.T) {
	tabs, err := Run("ext-ensemble", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != len(ensembleKs) {
		t.Fatalf("ext-ensemble rows %d, want %d", len(rows), len(ensembleKs))
	}
	for i, row := range rows {
		k, _ := strconv.Atoi(row[0])
		km, _ := strconv.Atoi(row[1])
		if k != ensembleKs[i] || km < k {
			t.Fatalf("row %d: K=%q KernelM=%q", i, row[0], row[1])
		}
		sp, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil || !(sp > 0) || math.IsInf(sp, 0) {
			t.Fatalf("K=%d: member speed-up cell %q", k, row[3])
		}
	}
}

// TestFig8PhasesSumToAverage: in every thread column of the per-phase
// table the five solver phases (all rows but Construct) sum to the
// MRHS s/step the first table prints, to the printed digits.
func TestFig8PhasesSumToAverage(t *testing.T) {
	tabs, err := Run("fig8", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("fig8 tables %d, want speed-up and per-phase", len(tabs))
	}
	avg, phases := tabs[0], tabs[1]
	if len(phases.Header) != 1+len(avg.Rows) || phases.Rows[0][0] != "Construct" || len(phases.Rows) != 6 {
		t.Fatalf("per-phase table shape: header %v, %d rows", phases.Header, len(phases.Rows))
	}
	for col, row := range avg.Rows {
		want, _ := strconv.ParseFloat(row[2], 64)
		var sum float64
		for _, ph := range phases.Rows[1:] {
			v, err := strconv.ParseFloat(ph[1+col], 64)
			if err != nil {
				t.Fatalf("bad phase cell %q", ph[1+col])
			}
			sum += v
		}
		// Six cells each rounded to 1e-4.
		if want <= 0 || math.Abs(sum-want) > 3.5e-4 {
			t.Fatalf("threads=%s: phases sum to %.4f, MRHS s/step is %.4f", row[0], sum, want)
		}
	}
}

func TestTableFprintCSV(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}, {"2", "z"}},
		Notes:  []string{"note line"},
	}
	var buf bytes.Buffer
	if err := tab.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a,b\n", "1,\"x,y\"\n", "2,z\n", "# note line\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}
