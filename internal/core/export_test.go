package core

import "repro/internal/bcrs"

// SetAudit installs the test hook that sees every converged solve's
// system and solution.
func (r *Runner) SetAudit(f func(kind string, a *bcrs.Matrix, x, b []float64)) { r.audit = f }

// GuessTolFactor is the c of the block solve's tolerance c*min
// GuessRelError.
const GuessTolFactor = guessTolFactor
