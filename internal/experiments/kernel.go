package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/perf"
)

func init() {
	register("table2", "SPMV (m=1) achieved GB/s and Gflops", table2)
	register("fig1", "model profile: vectors multipliable in 2x single-vector time", fig1)
	register("fig2a", "predicted vs achieved relative time r(m) for mat2", fig2a)
	register("fig2b", "relative time r(m) for mat1, mat2, mat3", fig2b)
}

func table2(cfg Config) ([]*Table, error) {
	mats, err := Mats(cfg)
	if err != nil {
		return nil, err
	}
	host := perf.CalibratedMachine()
	t := &Table{
		Title:  "Table II: performance and bandwidth usage of SPMV (m=1)",
		Header: []string{"Matrix", "GB/s", "Gflops", "paper GB/s", "paper Gflops"},
	}
	paper := map[string][2]float64{
		"mat1": {17.8, 3.6}, // on WSM
		"mat2": {18.3, 4.2}, // on WSM
		"mat3": {32.0, 7.4}, // on SNB
	}
	for _, spec := range PaperMats {
		e := mats[spec.Name]
		r := perf.MeasureRates(e.a, 1)
		p := paper[spec.Name]
		t.Rows = append(t.Rows, []string{
			spec.Name, fmt.Sprintf("%.1f", r.GBps), fmt.Sprintf("%.1f", r.Gflops),
			fmt.Sprintf("%.1f", p[0]), fmt.Sprintf("%.1f", p[1]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("host STREAM bandwidth %.1f GB/s, basic-kernel rate %.1f Gflops, B/F %.2f on Figure 1's axis (paper: WSM 23/45, SNB 33/90)",
			host.B/1e9, host.F/1e9, host.ByteFlopRatio()))
	return []*Table{t}, nil
}

func fig1(cfg Config) ([]*Table, error) {
	bprs := []float64{6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72, 78, 84}
	bofs := []float64{0.02, 0.06, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	grid := model.Fig1Profile(bprs, bofs, 512)
	t := &Table{
		Title:  "Figure 1: number of vectors multipliable in 2x single-vector time (k(m)=0)",
		Header: append([]string{"nnzb/nb \\ B/F"}, mapF(bofs, fmtF)...),
	}
	for i, bpr := range bprs {
		row := []string{fmtF(bpr)}
		for j := range bofs {
			row = append(row, fmtInt(grid[i][j]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "counts capped at 512; contours decrease with B/F and increase with row density while bandwidth-bound")
	return []*Table{t}, nil
}

// fig2Ms is the vector-count sweep of Figure 2.
var fig2Ms = []int{1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 42}

func fig2a(cfg Config) ([]*Table, error) {
	mats, err := Mats(cfg)
	if err != nil {
		return nil, err
	}
	e := mats["mat2"]
	host := perf.EffectiveMachine(e.a)
	shape := model.Shape{NB: e.a.NB(), NNZB: e.a.NNZB()}
	gHost := model.GSPMV{Machine: host, Shape: shape, K: model.DefaultK}
	gPaper := model.GSPMV{Machine: model.WSM, Shape: shape, K: model.DefaultK}
	measured := perf.RelativeTimes(e.a, fig2Ms)

	t := &Table{
		Title:  "Figure 2a: predicted vs achieved relative time r(m), mat2",
		Header: []string{"m", "achieved", "model(host)", "bw-bound(host)", "comp-bound(host)", "model(paper WSM)"},
		Notes: []string{fmt.Sprintf(
			"host model uses achievable rates measured on this matrix: B=%.1f GB/s, F=%.1f Gflops (see EffectiveMachine)",
			host.B/1e9, host.F/1e9)},
	}
	for i, m := range fig2Ms {
		t.Rows = append(t.Rows, []string{
			fmtInt(m),
			fmt.Sprintf("%.2f", measured[i]),
			fmt.Sprintf("%.2f", gHost.RelativeTime(m)),
			fmt.Sprintf("%.2f", gHost.Tbw(m)/gHost.Tbw(1)),
			fmt.Sprintf("%.2f", gHost.Tcomp(m)/gHost.Tbw(1)),
			fmt.Sprintf("%.2f", gPaper.RelativeTime(m)),
		})
	}
	return []*Table{t}, nil
}

func fig2b(cfg Config) ([]*Table, error) {
	mats, err := Mats(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 2b: relative time r(m) for the three matrices",
		Header: []string{"m", "mat1", "mat2", "mat3"},
	}
	meas := map[string][]float64{}
	for _, spec := range PaperMats {
		meas[spec.Name] = perf.RelativeTimes(mats[spec.Name].a, fig2Ms)
	}
	for i, m := range fig2Ms {
		t.Rows = append(t.Rows, []string{
			fmtInt(m),
			fmt.Sprintf("%.2f", meas["mat1"][i]),
			fmt.Sprintf("%.2f", meas["mat2"][i]),
			fmt.Sprintf("%.2f", meas["mat3"][i]),
		})
	}
	// The paper's headline: vectors at 2x the single-vector time.
	for _, spec := range PaperMats {
		at2 := 0
		for i, m := range fig2Ms {
			if meas[spec.Name][i] <= 2 {
				at2 = m
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %d vectors within 2x (paper: mat1 8, mat2 12, mat3 16)", spec.Name, at2))
	}
	return []*Table{t}, nil
}

func mapF(vs []float64, f func(float64) string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = f(v)
	}
	return out
}
