package experiments

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/multivec"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/rng"
)

func init() {
	register("table2", "SPMV (m=1) achieved GB/s and Gflops", table2)
	register("fig1", "model profile: vectors multipliable in 2x single-vector time", fig1)
	register("fig2a", "predicted vs achieved relative time r(m) for mat2", fig2a)
	register("fig2b", "relative time r(m) for mat1, mat2, mat3", fig2b)
	register("ext-symmetric", "EXTENSION: half-storage symmetric GSPMV vs the general kernels, measured and modeled", extSymmetric)
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
		r := perf.MeasureRates(e.a, 1, 3)
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
	host := perf.EffectiveMachine(e.a, 3)
	shape := model.Shape{NB: e.a.NB(), NNZB: e.a.NNZB()}
	gHost := model.GSPMV{Machine: host, Shape: shape}
	gPaper := model.GSPMV{Machine: model.WSM, Shape: shape}
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

// extSymmetric races the half-storage symmetric multiply against the
// general one at equal thread counts on a banded matrix: the band
// models an RCM-ordered short-cutoff lubrication topology (Random's
// nb/16 default puts most of the multiply into scatter-window stalls
// no ordered physical matrix shows).
func extSymmetric(cfg Config) ([]*Table, error) {
	a := bcrs.Random(bcrs.RandomOptions{
		NB: cfg.MatrixNB, BlocksPerRow: 20, Bandwidth: 1200, NoWrap: true, Seed: cfg.Seed,
	})
	s, err := bcrs.NewSym(a)
	if err != nil {
		return nil, err
	}
	host := perf.EffectiveMachine(a, 3)
	g := perf.SymGSPMV(a, s, host, 3)
	t := &Table{
		Title: fmt.Sprintf("EXT: symmetric vs general GSPMV, nb=%d, %.1f blocks/row, span %d (%.0f MiB general, %.0f MiB symmetric)",
			a.NB(), a.BlocksPerRow(), s.Span(), float64(a.Stats().Bytes)/(1<<20), float64(s.Bytes())/(1<<20)),
		Header: []string{"threads", "m", "speedup", "pred speedup", "r(m)", "r_sym(m)", "pred r_sym", "bitwise"},
		Notes: []string{
			fmt.Sprintf("model on this matrix's achievable rates: B=%.1f GB/s, F=%.1f Gflops; compute-bound from m_s=%d general, m_s=%d symmetric",
				host.B/1e9, host.F/1e9, g.MSwitch(256), g.MSwitchSym(256)),
			"r and r_sym share the general m=1 time; bitwise: three symmetric multiplies into NaN-poisoned outputs are bit-equal at this thread count",
		},
	}
	threads := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		threads = append(threads, n)
	}
	defer parallel.SetThreads(cfg.Threads)
	for _, th := range threads {
		a.SetThreads(th)
		s.SetThreads(th)
		parallel.SetThreads(th)
		for _, p := range perf.MeasureSymSpeedups(a, s, g, []int{1, 2, 4, 8, 16, 32}) {
			t.Rows = append(t.Rows, []string{
				fmtInt(th), fmtInt(p.M),
				fmt.Sprintf("%.2fx", p.Speedup), fmt.Sprintf("%.2fx", p.PredictedSpeed),
				fmt.Sprintf("%.2f", p.RGeneral), fmt.Sprintf("%.2f", p.RSym), fmt.Sprintf("%.2f", p.PredictedRSym),
				fmt.Sprint(symDeterministic(s, p.M)),
			})
		}
	}
	return []*Table{t}, nil
}

// symDeterministic multiplies three times with m vectors into
// NaN-poisoned outputs (so a stale value cannot fake a match) and
// reports whether the results are bitwise identical.
func symDeterministic(s *bcrs.SymMatrix, m int) bool {
	x := multivec.New(s.N(), m)
	rng.New(42).FillNormal(x.Data)
	poisoned := func(y *multivec.MultiVec) {
		for i := range y.Data {
			y.Data[i] = math.NaN()
		}
		s.Mul(y, x)
	}
	ref, y := multivec.New(s.N(), m), multivec.New(s.N(), m)
	poisoned(ref)
	for rep := 0; rep < 2; rep++ {
		poisoned(y)
		for i, v := range y.Data {
			if math.Float64bits(v) != math.Float64bits(ref.Data[i]) {
				return false
			}
		}
	}
	return true
}

func mapF(vs []float64, f func(float64) string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = f(v)
	}
	return out
}
