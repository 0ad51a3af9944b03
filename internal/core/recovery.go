package core

import (
	"fmt"

	"repro/internal/cluster/faults"
	"repro/internal/obs"
)

// Snapshotter persists recovery state outside the process, so a
// replay can restore the configuration the way a restarted job would:
// through the checkpoint codec. internal/sd.FileSnapshotter adapts
// internal/checkpoint to this interface; a nil Snapshotter keeps
// recovery purely in memory.
type Snapshotter interface {
	// Save persists the configuration as of the given completed-step
	// count.
	Save(c Configuration, step int) error
	// Restore returns the most recently saved configuration and step.
	Restore() (Configuration, int, error)
}

// Recovery configures crash recovery for the Run loops: when a step
// or chunk fails with an injected (or real) transport fault — a node
// crash, an undeliverable halo message, an expired deadline — the
// runner restores the last snapshot and replays it. Because the noise
// z_k is a pure function of (Seed, k) and solvers are pure in their
// inputs, a replay reproduces the interrupted trajectory bitwise. A
// step or chunk is replayed at most maxRetries times before its fault
// is surfaced to the caller.
type Recovery struct {
	// Snapshotter, if non-nil, additionally persists each snapshot
	// and is the restore source on replay, so recovery exercises the
	// same path as a process restart. Nil recovers in memory only.
	Snapshotter Snapshotter
}

// maxRetries bounds the replays of a single step or chunk.
const maxRetries = 5

// memSnap is the in-memory rollback point taken at a step or chunk
// boundary. The configuration is safe to retain by reference:
// Displaced returns a fresh Configuration, so stepping never mutates
// a snapshot.
type memSnap struct {
	cur        Configuration
	k          int
	steps      int // Timings.Steps
	records    int // len(Records)
	blockIters int
}

// takeSnap captures the rollback point and, when a Snapshotter is
// configured, persists it.
func (r *Runner) takeSnap() (memSnap, error) {
	s := memSnap{cur: r.cur, k: r.k, steps: r.Timings.Steps,
		records: len(r.Records), blockIters: r.BlockIters}
	if rc := r.cfg.Recovery; rc != nil && rc.Snapshotter != nil {
		if err := rc.Snapshotter.Save(r.cur, r.k); err != nil {
			return memSnap{}, fmt.Errorf("core: snapshot at step %d: %w", r.k, err)
		}
	}
	return s, nil
}

// restoreSnap rolls the runner back to the snapshot. Records are
// truncated and the step counters rewound, so the trajectory-facing
// state reflects each step exactly once; accumulated phase durations
// are kept — replayed work really was paid for, and hiding it would
// falsify the Tables VI/VII accounting under chaos.
func (r *Runner) restoreSnap(s memSnap) error {
	cur, k := s.cur, s.k
	if rc := r.cfg.Recovery; rc != nil && rc.Snapshotter != nil {
		c, step, err := rc.Snapshotter.Restore()
		if err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		if step != s.k {
			return fmt.Errorf("core: restored checkpoint at step %d, want %d", step, s.k)
		}
		cur, k = c, step
	}
	r.cur = cur
	r.k = k
	r.Timings.Steps = s.steps
	r.Records = r.Records[:s.records]
	r.BlockIters = s.blockIters
	return nil
}

// guardFaults runs step, converting a *faults.Error panic (the only
// way a failed halo exchange can escape the errorless solver
// interfaces) back into an error at this boundary. Any other panic is
// a bug and propagates.
func guardFaults(step func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			// The panic value may be an errors.Join of several nodes'
			// *faults.Error values, so assert error-ness, not the
			// concrete type.
			if e, ok := p.(error); ok && faults.IsFault(e) {
				err = e
				return
			}
			panic(p)
		}
	}()
	return step()
}

// runRecoverable executes one step or chunk with fault recovery:
// snapshot, run, and on a transport fault restore and replay, up to
// maxRetries times. Non-fault errors (a genuinely stalled solve)
// surface immediately — replaying deterministic numerics cannot help
// them.
func (r *Runner) runRecoverable(label string, step func() error) error {
	if r.cfg.Recovery == nil {
		return guardFaults(step)
	}
	snap, err := r.takeSnap()
	if err != nil {
		return err
	}
	reg := r.obsReg()
	var last error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			if rerr := r.restoreSnap(snap); rerr != nil {
				return fmt.Errorf("core: recovering from %v: %w", last, rerr)
			}
			reg.Counter(obs.Label("core_fault_recoveries_total", "phase", label)).Inc()
			if r.Events != nil {
				r.Events.Emit("fault_recovery", map[string]any{
					"step":    snap.k,
					"phase":   label,
					"attempt": attempt,
					"fault":   last.Error(),
				})
			}
		}
		err := guardFaults(step)
		if err == nil {
			return nil
		}
		if !faults.IsFault(err) {
			return err
		}
		last = err
		reg.Counter(obs.Label("core_faults_detected_total", "phase", label)).Inc()
	}
	return fmt.Errorf("core: %s at step %d failed after %d replays: %w",
		label, snap.k, maxRetries, last)
}
