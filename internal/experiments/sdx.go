package experiments

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/bcrs"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/particles"
	"repro/internal/perf"
	"repro/internal/rng"
	"repro/internal/sd"
	"repro/internal/solver"
)

func init() {
	register("table4", "distribution of particle radii (E. coli cytoplasm)", table4)
	register("fig5", "relative error of initial guesses vs time step (sqrt growth)", fig5)
	register("fig6", "iterations for convergence vs time step, with guesses", fig6)
	register("table5", "iterations with and without initial guesses", table5)
	register("table6", "timing breakdown per step vs problem size, MRHS vs original", table6)
	register("table7", "timing breakdown per step vs volume occupancy", table7)
	register("table8", "bandwidth/compute switch point m_s vs measured m_optimal", table8)
	register("fig7", "predicted vs achieved average step time vs m", fig7)
	register("fig8", "GSPMV and MRHS speedup vs thread count", fig8)
}

// paperSetting is the note on every table that regenerates a paper
// result: the paper's solves are unpreconditioned, the stepper's are
// not any more.
const paperSetting = "solves unpreconditioned (core.NoPrecond), the paper's setting; the stepper's default reuses one IC(0) factor per window of m steps (table6's second table, ext-techniques)"

// newSim builds an SD simulation of n particles at occupancy phi in
// the paper's setting, every solve unpreconditioned.
func newSim(cfg Config, n int, phi float64, m int) (*sd.Simulation, error) {
	return newSimPrecond(cfg, n, phi, m, core.NoPrecond)
}

// newSimPrecond is newSim under a Config.Precond; nil is the stepper's
// default.
func newSimPrecond(cfg Config, n int, phi float64, m int, precond func(*bcrs.Matrix) solver.Preconditioner) (*sd.Simulation, error) {
	sys, err := cachedSystem(n, phi, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sim := sd.New(sys, hydro.Options{Phi: phi}, core.Config{
		Dt: 2, M: m, Seed: cfg.Seed, Precond: precond,
	}, cfg.Threads)
	return sim, nil
}

func table4(cfg Config) ([]*Table, error) {
	t := &Table{
		Title:  "Table IV: distribution of particle radii",
		Header: []string{"radius (A)", "distribution (%)", "sampled (%)"},
	}
	n := 100000
	s := rng.New(cfg.Seed)
	counts := map[float64]int{}
	for _, r := range particles.SampleRadii(s, n) {
		counts[r]++
	}
	for _, rf := range particles.EColiRadii {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", rf.Radius),
			fmt.Sprintf("%.2f", 100*rf.Fraction),
			fmt.Sprintf("%.2f", 100*float64(counts[rf.Radius])/float64(n)),
		})
	}
	return []*Table{t}, nil
}

func fig5(cfg Config) ([]*Table, error) {
	// One MRHS chunk spanning the whole horizon: all guesses come
	// from the step-0 augmented system, as in the paper's figure.
	sim, err := newSim(cfg, cfg.SizeSmall, 0.5, cfg.Steps)
	if err != nil {
		return nil, err
	}
	if err := sim.RunMRHS(cfg.Steps); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 5: relative error of initial guesses vs time step",
		Header: []string{"step", "rel error", "err/sqrt(step)"},
	}
	for _, r := range sim.Records[1:] {
		c := r.GuessRelError / math.Sqrt(float64(r.Step))
		t.Rows = append(t.Rows, []string{
			fmtInt(r.Step), fmt.Sprintf("%.3g", r.GuessRelError), fmt.Sprintf("%.3g", c),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d particles, 50%% occupancy; a near-constant err/sqrt(step) column reproduces the paper's sqrt-of-time growth (paper constant ~0.006 at 3,000 particles)", cfg.SizeSmall),
		paperSetting)
	return []*Table{t}, nil
}

func fig6(cfg Config) ([]*Table, error) {
	sizes := []int{cfg.SizeSmall, cfg.SizeMedium, cfg.SizeLarge}
	t := &Table{
		Title:  "Figure 6: iterations for convergence vs time step, with initial guesses (phi=0.5)",
		Header: []string{"step", fmt.Sprintf("n=%d", sizes[0]), fmt.Sprintf("n=%d", sizes[1]), fmt.Sprintf("n=%d", sizes[2])},
	}
	iters := make([][]int, len(sizes))
	for i, n := range sizes {
		sim, err := newSim(cfg, n, 0.5, cfg.Steps)
		if err != nil {
			return nil, err
		}
		if err := sim.RunMRHS(cfg.Steps); err != nil {
			return nil, err
		}
		for _, r := range sim.Records[1:] {
			iters[i] = append(iters[i], r.FirstIters)
		}
	}
	for s := 0; s < len(iters[0]); s++ {
		row := []string{fmtInt(s + 1)}
		for i := range sizes {
			row = append(row, fmtInt(iters[i][s]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper shape: iteration counts grow slowly over the chunk for all sizes", paperSetting)
	return []*Table{t}, nil
}

func table5(cfg Config) ([]*Table, error) {
	phis := []float64{0.1, 0.3, 0.5}
	t := &Table{
		Title: fmt.Sprintf("Table V: iterations with and without initial guesses (%d particles)", cfg.SizeLarge),
		Header: []string{"step",
			"with 0.1", "with 0.3", "with 0.5",
			"without 0.1", "without 0.3", "without 0.5"},
	}
	with := make(map[float64][]int)
	without := make(map[float64][]int)
	for _, phi := range phis {
		mr, err := newSim(cfg, cfg.SizeLarge, phi, cfg.Steps)
		if err != nil {
			return nil, err
		}
		if err := mr.RunMRHS(cfg.Steps); err != nil {
			return nil, err
		}
		for _, r := range mr.Records[1:] {
			with[phi] = append(with[phi], r.FirstIters)
		}
		or, err := newSim(cfg, cfg.SizeLarge, phi, 1)
		if err != nil {
			return nil, err
		}
		if err := or.RunOriginal(cfg.Steps); err != nil {
			return nil, err
		}
		for _, r := range or.Records[1:] {
			without[phi] = append(without[phi], r.FirstIters)
		}
	}
	for s := 1; s < cfg.Steps-1; s += 2 { // even steps 2, 4, ... like the paper
		row := []string{fmtInt(s + 1)}
		for _, phi := range phis {
			row = append(row, fmtInt(with[phi][s]))
		}
		for _, phi := range phis {
			row = append(row, fmtInt(without[phi][s]))
		}
		t.Rows = append(t.Rows, row)
	}
	// Summary: reduction fraction.
	for _, phi := range phis {
		t.Notes = append(t.Notes, fmt.Sprintf("phi=%.1f: mean with %0.1f vs without %0.1f (%.0f%% reduction; paper: 30-40%%)",
			phi, meanInts(with[phi]), meanInts(without[phi]),
			100*(1-meanInts(with[phi])/meanInts(without[phi]))))
	}
	t.Notes = append(t.Notes, paperSetting)
	return []*Table{t}, nil
}

// breakdown runs both algorithms on one system under a Config.Precond
// (core.NoPrecond: the paper's setting; nil: the stepper's default) and
// returns the phase breakdown columns. Both algorithms get m = 16: it
// is Algorithm 2's chunk and the lifetime in steps of Algorithm 1's
// preconditioner, which it otherwise ignores.
func breakdown(cfg Config, n int, phi float64, steps int, precond func(*bcrs.Matrix) solver.Preconditioner) (mrhs, orig map[string]float64, err error) {
	mr, err := newSimPrecond(cfg, n, phi, 16, precond)
	if err != nil {
		return nil, nil, err
	}
	if err := mr.RunMRHS(steps); err != nil {
		return nil, nil, err
	}
	or, err := newSimPrecond(cfg, n, phi, 16, precond)
	if err != nil {
		return nil, nil, err
	}
	if err := or.RunOriginal(steps); err != nil {
		return nil, nil, err
	}
	return mr.Timings.PerStep(), or.Timings.PerStep(), nil
}

// breakdownTable renders paper-style Tables VI/VII.
func breakdownTable(title string, labels []string, mrhs, orig []map[string]float64) *Table {
	t := &Table{Title: title}
	t.Header = []string{"phase"}
	for _, l := range labels {
		t.Header = append(t.Header, "MRHS "+l)
	}
	for _, l := range labels {
		t.Header = append(t.Header, "orig "+l)
	}
	rows := []string{"Cheb vectors", "Calc guesses", "Cheb single", "1st solve", "2nd solve", "Average"}
	for _, phase := range rows {
		row := []string{phase}
		for _, m := range mrhs {
			row = append(row, fmt.Sprintf("%.4f", m[phase]))
		}
		for _, o := range orig {
			if phase == "Cheb vectors" || phase == "Calc guesses" {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.4f", o[phase]))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func table6(cfg Config) ([]*Table, error) {
	sizes := []int{cfg.SizeSmall, cfg.SizeMedium, cfg.SizeLarge}
	// The paper's table, then the same systems under the stepper's
	// default: what the reused factor does to each phase of both
	// algorithms.
	var tabs []*Table
	for _, v := range []struct {
		title   string
		precond func(*bcrs.Matrix) solver.Preconditioner
		notes   []string
	}{
		{"Table VI: timing breakdown (s/step) vs problem size, phi=0.5, m=16", core.NoPrecond,
			[]string{paperSetting}},
		{"Table VI under the default step: one IC(0) factor per 16 steps preconditions every solve", nil,
			[]string{
				"Calc guesses (MRHS) and 1st solve (orig) include the window's factorisation; beyond the paper",
				"the factor helps Algorithm 1's cold first solve at least as much as Algorithm 2's warm one: with about ten iterations per solve the guesses have little left to save against the chunk's block solve, so the step speed-up falls below the paper-setting table's",
			}},
	} {
		var mrhs, orig []map[string]float64
		var labels []string
		for _, n := range sizes {
			m, o, err := breakdown(cfg, n, 0.5, 16, v.precond)
			if err != nil {
				return nil, err
			}
			mrhs = append(mrhs, m)
			orig = append(orig, o)
			labels = append(labels, fmtInt(n))
		}
		t := breakdownTable(v.title, labels, mrhs, orig)
		for i := range sizes {
			t.Notes = append(t.Notes, fmt.Sprintf("n=%s speedup: %.2fx (paper: 1.1-1.4x)",
				labels[i], orig[i]["Average"]/mrhs[i]["Average"]))
		}
		t.Notes = append(t.Notes, v.notes...)
		tabs = append(tabs, t)
	}
	return tabs, nil
}

func table7(cfg Config) ([]*Table, error) {
	phis := []float64{0.1, 0.3, 0.5}
	var mrhs, orig []map[string]float64
	var labels []string
	for _, phi := range phis {
		m, o, err := breakdown(cfg, cfg.SizeLarge, phi, 16, core.NoPrecond)
		if err != nil {
			return nil, err
		}
		mrhs = append(mrhs, m)
		orig = append(orig, o)
		labels = append(labels, fmt.Sprintf("%.1f", phi))
	}
	t := breakdownTable(
		fmt.Sprintf("Table VII: timing breakdown (s/step) vs volume occupancy, %d particles, m=16", cfg.SizeLarge),
		labels, mrhs, orig)
	for i := range phis {
		t.Notes = append(t.Notes, fmt.Sprintf("phi=%s speedup: %.2fx", labels[i], orig[i]["Average"]/mrhs[i]["Average"]))
	}
	t.Notes = append(t.Notes, paperSetting)
	return []*Table{t}, nil
}

// measureStepTime runs a short MRHS simulation at chunk size m and
// returns the average seconds per step summed over the five solver
// phases — matching the paper's Table VI/VII accounting, which
// excludes matrix construction (paid identically by both algorithms).
func measureStepTime(cfg Config, n int, phi float64, m, steps int) (float64, error) {
	sim, err := newSim(cfg, n, phi, m)
	if err != nil {
		return 0, err
	}
	if err := sim.RunMRHS(steps); err != nil {
		return 0, err
	}
	return sim.Timings.PerStep()["Average"], nil
}

// iterCounts measures N (cold first-solve iterations), N1 (warm
// first-solve) and N2 (second-solve) for the system.
func iterCounts(cfg Config, n int, phi float64) (N, N1, N2 int, err error) {
	or, err := newSim(cfg, n, phi, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := or.RunOriginal(4); err != nil {
		return 0, 0, 0, err
	}
	var cold, sec int
	for _, r := range or.Records {
		cold += r.FirstIters
		sec += r.SecondIters
	}
	N = cold / len(or.Records)
	N2 = sec / len(or.Records)

	mr, err := newSim(cfg, n, phi, 8)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := mr.RunMRHS(8); err != nil {
		return 0, 0, 0, err
	}
	var warm, wn int
	for _, r := range mr.Records[1:] {
		warm += r.FirstIters
		wn++
	}
	if wn > 0 {
		N1 = warm / wn
	}
	return N, N1, N2, nil
}

// mrhsModelFor builds the Eq. 9-12 model for a system, with machine
// parameters calibrated to the rates the kernels actually achieve on
// the system's matrix, plus measured iteration counts.
func mrhsModelFor(cfg Config, n int, phi float64) (model.MRHS, error) {
	sim, err := newSim(cfg, n, phi, 1)
	if err != nil {
		return model.MRHS{}, err
	}
	a := sim.Current().(*sd.Conf).Build()
	mach := perf.EffectiveMachine(a, 3)
	N, N1, N2, err := iterCounts(cfg, n, phi)
	if err != nil {
		return model.MRHS{}, err
	}
	return model.MRHS{
		GSPMV: model.GSPMV{Machine: mach, Shape: model.Shape{NB: a.NB(), NNZB: a.NNZB()}},
		N:     N, N1: N1, N2: N2, Cmax: 30,
	}, nil
}

func table8(cfg Config) ([]*Table, error) {
	type sys struct {
		n   int
		phi float64
	}
	systems := []sys{
		{cfg.SizeSmall, 0.5},
		{cfg.SizeMedium, 0.5},
		{cfg.SizeLarge, 0.1},
		{cfg.SizeLarge, 0.3},
		{cfg.SizeLarge, 0.5},
	}
	t := &Table{
		Title:  "Table VIII: m_s (model switch point) and m_optimal (measured best chunk size)",
		Header: []string{"problem size", "occupancy", "m_s", "m_optimal", "model m_optimal"},
	}
	ms := []int{2, 4, 6, 8, 10, 12, 16, 20}
	for _, s := range systems {
		mdl, err := mrhsModelFor(cfg, s.n, s.phi)
		if err != nil {
			return nil, err
		}
		msw := mdl.GSPMV.MSwitch(64)
		best, bestT := 0, math.Inf(1)
		for _, m := range ms {
			steps := m
			if steps < 8 {
				steps = 8
			}
			sec, err := measureStepTime(cfg, s.n, s.phi, m, steps)
			if err != nil {
				return nil, err
			}
			if sec < bestT {
				best, bestT = m, sec
			}
		}
		t.Rows = append(t.Rows, []string{
			fmtInt(s.n), fmt.Sprintf("%.0f%%", 100*s.phi), fmtInt(msw), fmtInt(best), fmtInt(mdl.MOptimal(64)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: m_optimal tracks m_s within a few vectors (Table VIII: 5/4, 12/10, 15/12, 13/10, 12/10); model m_optimal minimises Eq. 9 over m <= 64 with this system's measured N, N1, N2",
		"where the measured Tmrhs(m) curve is nearly flat past its dip (see fig7) the measured minimum is weakly determined; m_s and model m_optimal are the model's statement of where chunks stop paying",
		paperSetting)
	return []*Table{t}, nil
}

func fig7(cfg Config) ([]*Table, error) {
	n, phi := cfg.SizeLarge, 0.5
	mdl, err := mrhsModelFor(cfg, n, phi)
	if err != nil {
		return nil, err
	}
	paper := mdl
	paper.GSPMV.Machine = model.WSM
	t := &Table{
		Title:  fmt.Sprintf("Figure 7: predicted and achieved average step time vs m (%d particles, phi=0.5)", n),
		Header: []string{"m", "achieved s/step", "predicted s/step", "bw-branch", "comp-branch"},
	}
	for _, m := range []int{1, 2, 4, 8, 12, 16, 20, 24} {
		steps := m
		if steps < 8 {
			steps = 8
		}
		sec, err := measureStepTime(cfg, n, phi, m, steps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmtInt(m), fmt.Sprintf("%.4f", sec),
			fmt.Sprintf("%.4f", mdl.StepTime(m)),
			fmt.Sprintf("%.4f", mdl.StepTimeBandwidth(m)),
			fmt.Sprintf("%.4f", mdl.StepTimeCompute(m)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("model params: N=%d N1=%d N2=%d Cmax=%d (paper: 162/80/63/30)", mdl.N, mdl.N1, mdl.N2, mdl.Cmax),
		modelSummary("this host's achievable rates", mdl),
		modelSummary("the paper's WSM (B=23 GB/s, F=45 Gflops), same matrix and iteration counts", paper),
		"achieved exceeds predicted by the block-CG small-operation overhead (Gram products, m x m solves), which Eq. 9 does not price; the shape — dip to an interior optimum, then rise — is the comparison that matters",
		paperSetting)
	return []*Table{t}, nil
}

// modelSummary is the closing line of the Eq. 9 model on one machine:
// where GSPMV turns compute-bound, the chunk size minimising Tmrhs,
// and the speed-up over Algorithm 1 predicted there.
func modelSummary(machine string, p model.MRHS) string {
	mo := p.MOptimal(64)
	return fmt.Sprintf("model on %s: m_s = %d, m_optimal = %d, predicted speed-up over Algorithm 1 %.2fx",
		machine, p.GSPMV.MSwitch(64), mo, p.Speedup(mo))
}

func fig8(cfg Config) ([]*Table, error) {
	mats, err := Mats(cfg)
	if err != nil {
		return nil, err
	}
	a := mats["mat2"].a
	var threads []int
	for th := 1; th < runtime.NumCPU(); th *= 2 {
		threads = append(threads, th)
	}
	threads = append(threads, runtime.NumCPU())
	t := &Table{
		Title:  "Figure 8: GSPMV time (ms, m=16) and MRHS speedup vs threads",
		Header: []string{"threads", "GSPMV ms", "MRHS s/step", "orig s/step", "speedup"},
	}
	phases := &Table{
		Title:  fmt.Sprintf("Figure 8: MRHS s/step by phase vs threads (%d particles, phi=0.5, m=16)", cfg.SizeMedium),
		Header: []string{"phase"},
		Notes:  []string{"the five solver phases sum to the first table's MRHS s/step; Construct is paid identically by both algorithms and excluded from it, as in Tables VI/VII"},
	}
	for _, phase := range core.PhaseOrder[:len(core.PhaseOrder)-1] { // all but "Average"
		phases.Rows = append(phases.Rows, []string{phase})
	}
	defer a.SetThreads(cfg.Threads)
	defer parallel.SetThreads(cfg.Threads)
	for _, th := range threads {
		a.SetThreads(th)
		parallel.SetThreads(th)
		gspmv := perf.TimeMultiply(a, 16, 0) * 1e3
		thCfg := cfg
		thCfg.Threads = th
		m, o, err := breakdown(thCfg, cfg.SizeMedium, 0.5, 8, core.NoPrecond)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmtInt(th), fmt.Sprintf("%.2f", gspmv),
			fmt.Sprintf("%.4f", m["Average"]), fmt.Sprintf("%.4f", o["Average"]),
			fmt.Sprintf("%.2fx", o["Average"]/m["Average"]),
		})
		phases.Header = append(phases.Header, fmt.Sprintf("t=%d", th))
		for i, row := range phases.Rows {
			phases.Rows[i] = append(row, fmt.Sprintf("%.4f", m[row[0]]))
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"paper shape: speedup grows with threads as B/F per thread falls; thread counts are the powers of two up to this host's %d CPUs",
		runtime.NumCPU()), paperSetting)
	return []*Table{t, phases}, nil
}

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
