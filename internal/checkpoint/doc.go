// Package checkpoint saves and restores simulation state. Because
// the noise of step k is a pure function of (seed, k) — see
// internal/rng — a restored run reproduces the interrupted trajectory
// exactly: checkpoint/resume is bitwise transparent, which the tests
// verify end-to-end.
//
// The same property makes checkpoints the recovery substrate for the
// fault-tolerance layer: when a simulated node crash aborts a step,
// internal/core restores the last snapshot (through
// internal/sd.FileSnapshotter, which wraps this package) and replays
// it, landing on the trajectory the clean run would have produced.
//
// # Invariants and failure semantics
//
//   - A State is complete: positions, radii, box, volume fraction,
//     the master noise seed, and the next global step index are
//     everything needed to continue the run — solver state is
//     deliberately absent, because every solve is a pure function of
//     the configuration and (Seed, k). One exception: an MRHS chunk
//     that runs block CG (a window without a factor, internal/core)
//     stops it at a tolerance set from the previous chunk's guesses,
//     so a State also carries that floor (GuessErr, from
//     core.Runner.GuessErr); a resumed run restores it with
//     Runner.SetGuessErr next to SkipTo and solves its first chunk bit
//     for bit as the uninterrupted run does.
//   - SaveFile is atomic: the snapshot is written to a temp file in
//     the target's directory and renamed over it, so a crash during
//     save leaves the previous checkpoint intact, never a torn file.
//   - Load validates before returning: a version mismatch is an
//     error, and so is a snapshot no run could step from — a negative
//     step, a box that is not finite and positive, no particles,
//     positions and radii of different lengths, a radius that is not
//     finite and positive, a position that is not finite, a volume
//     fraction outside [0, 0.64), a guess-error floor that is negative
//     or not finite — which Load returns as ErrCorrupt
//     wrapped with the detail, where the stepper would have panicked.
//   - Save never mutates or aliases the live system: FromSystem
//     copies positions and radii, so a snapshot taken mid-run stays
//     fixed while the run advances.
package checkpoint
