package checkpoint

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/blas"
	"repro/internal/particles"
)

// State is a serializable snapshot of a simulation.
type State struct {
	// Version guards the on-disk format.
	Version int
	// Step is the next global time-step index.
	Step int
	// Seed is the master noise seed.
	Seed uint64
	// The particle system.
	Box    float64
	Phi    float64
	Pos    []blas.Vec3
	Radius []float64
	// GuessErr is the MRHS runner's guess-error floor at Step
	// (core.Runner.GuessErr), from which its next block solve sets its
	// tolerance. A snapshot written without it loads as 0: the resumed
	// run's first block solve then goes to Tol.
	GuessErr float64
}

// currentVersion is the format written by Save.
const currentVersion = 1

// ErrCorrupt is what Load returns, wrapped with the detail, for a
// snapshot that decodes but describes no state a run can continue from.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// maxPhi bounds the volume fraction a snapshot may carry: the far-field
// viscosity the resistance matrix is assembled with
// (hydro.EffectiveViscosity) is defined below random close packing.
const maxPhi = 0.64

// FromSystem captures a snapshot.
func FromSystem(sys *particles.System, step int, seed uint64) *State {
	return &State{
		Version: currentVersion,
		Step:    step,
		Seed:    seed,
		Box:     sys.Box,
		Phi:     sys.Phi,
		Pos:     append([]blas.Vec3(nil), sys.Pos...),
		Radius:  append([]float64(nil), sys.Radius...),
	}
}

// System reconstructs the particle system.
func (s *State) System() *particles.System {
	return &particles.System{
		N:      len(s.Pos),
		Box:    s.Box,
		Phi:    s.Phi,
		Pos:    append([]blas.Vec3(nil), s.Pos...),
		Radius: append([]float64(nil), s.Radius...),
	}
}

// Save writes the snapshot in gob encoding.
func Save(w io.Writer, s *State) error {
	if len(s.Pos) != len(s.Radius) {
		return errors.New("checkpoint: positions and radii lengths differ")
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load reads a snapshot written by Save.
func Load(r io.Reader) (*State, error) {
	var s State
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if s.Version != currentVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", s.Version)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, err)
	}
	return &s, nil
}

// validate reports the first field of a decoded snapshot that a run
// could not step from: each would otherwise surface as a panic deep in
// the stepper (a non-positive or NaN box in the neighbor search or the
// displacement, a negative step in Runner.SkipTo, no particles in the
// neighbor search).
func (s *State) validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case s.Step < 0:
		return fmt.Errorf("step %d is negative", s.Step)
	case !finite(s.Box) || s.Box <= 0:
		return fmt.Errorf("box %v is not a finite positive length", s.Box)
	case len(s.Pos) == 0:
		return errors.New("no particles")
	case len(s.Pos) != len(s.Radius):
		return fmt.Errorf("%d positions but %d radii", len(s.Pos), len(s.Radius))
	case !finite(s.Phi) || s.Phi < 0 || s.Phi >= maxPhi:
		return fmt.Errorf("volume fraction %v is not in [0, %v)", s.Phi, maxPhi)
	case !finite(s.GuessErr) || s.GuessErr < 0:
		return fmt.Errorf("guess error %v is not a finite non-negative number", s.GuessErr)
	}
	for i, a := range s.Radius {
		if !finite(a) || a <= 0 {
			return fmt.Errorf("particle %d: radius %v is not a finite positive length", i, a)
		}
	}
	for i, p := range s.Pos {
		if !finite(p[0]) || !finite(p[1]) || !finite(p[2]) {
			return fmt.Errorf("particle %d: position %v is not finite", i, p)
		}
	}
	return nil
}

// SaveFile writes the snapshot atomically: to a temp file in the same
// directory, then renamed over the target.
func SaveFile(path string, s *State) error {
	tmp, err := os.CreateTemp(dirOf(path), ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile reads a snapshot from a file.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
