package experiments

import (
	"fmt"

	"repro/internal/bcrs"
	"repro/internal/core"
	"repro/internal/solver"
)

func init() {
	register("ext-techniques",
		"EXTENSION: Section III technique comparison — cold CG, reused IC(0), Krylov recycling, MRHS guesses",
		extTechniques)
}

// extTechniques compares the techniques the paper lists for sequences
// of slowly varying systems (Section III) and the paper's MRHS guesses
// on identical SD trajectories, in iterations and in time: a technique
// that buys iterations with a costlier iteration shows in the ms
// column. The reused preconditioner is the stepper's Config.Precond
// window; recycling plugs in through Config.FirstSolve.
func extTechniques(cfg Config) ([]*Table, error) {
	// window is the chunk size under MRHS and the lifetime in steps of a
	// reused factor under either algorithm.
	const phi, window = 0.5, 8
	n := cfg.SizeMedium
	steps := cfg.Steps

	// Krylov recycling: deflate with the most recent solutions.
	var history [][]float64
	recSolve := func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats {
		var d *solver.Deflation
		if len(history) > 0 {
			d, _ = solver.NewDeflation(a, history)
		}
		st := solver.RecycledCG(a, x, b, d, opt)
		history = append(history, append([]float64(nil), x...))
		if len(history) > 4 {
			history = history[1:]
		}
		return st
	}

	variants := []struct {
		name    string
		mrhs    bool
		precond func(*bcrs.Matrix) solver.Preconditioner // nil: the default, IC(0)
		solve   core.SolveFunc
	}{
		{"cold CG (baseline)", false, core.NoPrecond, nil},
		{"reused IC(0), window 8", false, nil, nil},
		{"Krylov recycling (k<=4)", false, core.NoPrecond, recSolve},
		{"MRHS guesses (m=8)", true, core.NoPrecond, nil},
		{"MRHS + IC(0) (m=8): the default", true, nil, nil},
	}

	t := &Table{
		Title:  fmt.Sprintf("EXT: iterations and time by technique (%d particles, phi=%.1f, %d steps)", n, phi, steps),
		Header: []string{"technique", "1st iters", "vs cold", "2nd iters", "ms/step", "vs cold"},
	}
	var coldIters, coldMS float64
	for _, v := range variants {
		sim, err := newSim(cfg, n, phi, window)
		if err != nil {
			return nil, err
		}
		// Install the technique on a fresh runner over the same
		// starting configuration.
		c := sim.Cfg()
		c.Precond, c.FirstSolve = v.precond, v.solve
		runner := core.NewRunner(sim.Current(), c)
		if v.mrhs {
			err = runner.RunMRHS(steps)
		} else {
			err = runner.RunOriginal(steps)
		}
		if err != nil {
			return nil, err
		}
		var first, firsts, second int
		for _, rec := range runner.Records {
			if rec.FirstIters > 0 {
				first += rec.FirstIters
				firsts++
			}
			second += rec.SecondIters
		}
		iters := float64(first) / float64(firsts)
		ms := 1e3 * runner.Timings.PerStep()["Average"]
		if coldIters == 0 {
			coldIters, coldMS = iters, ms
		}
		t.Rows = append(t.Rows, []string{
			v.name, fmt.Sprintf("%.1f", iters), fmt.Sprintf("%.0f%%", 100*iters/coldIters),
			fmt.Sprintf("%.1f", float64(second)/float64(len(runner.Records))),
			fmt.Sprintf("%.2f", ms), fmt.Sprintf("%.0f%%", 100*ms/coldMS),
		})
		history = nil
	}
	t.Notes = append(t.Notes,
		"all variants run the same noise; 1st iters is the mean over the steps that ran a first solve, ms/step the five solver phases of Tables VI/VII (factorisations included, matrix construction excluded)",
		"a reuse window factors the matrix of its first step once (IC(0), zero fill) and preconditions every solve of its 8 steps with it; applying the factor costs about one multiply, so a preconditioned iteration is about twice a plain one",
		"beyond-paper extension quantifying the Section III alternatives next to the MRHS approach")
	return []*Table{t}, nil
}
