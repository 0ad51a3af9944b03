// Package particles models the polydisperse sphere systems simulated
// in the paper: collections of spheres whose radii follow the size
// distribution of proteins in the E. coli cytoplasm (the paper's
// Table IV, after Ando & Skolnick), placed without overlap in a cubic
// periodic box sized to a target volume occupancy.
//
// Volume occupancies up to 50% are needed (Section V-A); plain random
// sequential insertion jams well below that for polydisperse spheres,
// so the generator combines random placement with overlap-relaxation
// sweeps: overlapping pairs are pushed apart along their line of
// centers until the packing is overlap-free.
package particles

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/blas"
	"repro/internal/neighbor"
	"repro/internal/rng"
)

// RadiusFraction is one row of the paper's Table IV: a particle
// radius in Angstroms and the fraction of particles with that radius.
type RadiusFraction struct {
	Radius   float64 // Angstroms
	Fraction float64 // 0..1
}

// EColiRadii is the paper's Table IV: the distribution of protein
// radii in the E. coli cytoplasm used for all SD experiments.
var EColiRadii = []RadiusFraction{
	{115.24, 0.0243},
	{85.23, 0.0316},
	{66.49, 0.0655},
	{49.16, 0.0097},
	{45.43, 0.0049},
	{43.06, 0.0364},
	{42.48, 0.0291},
	{39.16, 0.0267},
	{36.76, 0.0801},
	{35.94, 0.0801},
	{31.71, 0.1092},
	{27.77, 0.2597},
	{25.75, 0.0825},
	{24.01, 0.0995},
	{21.42, 0.0607},
}

// SampleRadii draws n radii from the Table IV distribution using the
// given stream. The assignment is deterministic in distribution: the
// first floor(n*f_k) particles of each species are allocated exactly,
// and the remainder sampled, so the realized histogram tracks the
// table closely even for moderate n.
func SampleRadii(s *rng.Stream, n int) []float64 {
	radii := make([]float64, 0, n)
	for _, rf := range EColiRadii {
		count := int(float64(n) * rf.Fraction)
		for c := 0; c < count; c++ {
			radii = append(radii, rf.Radius)
		}
	}
	// Fill the rounding remainder by sampling the distribution.
	for len(radii) < n {
		radii = append(radii, sampleOne(s))
	}
	radii = radii[:n]
	// Shuffle so spatial placement is uncorrelated with size.
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		radii[i], radii[j] = radii[j], radii[i]
	}
	return radii
}

func sampleOne(s *rng.Stream) float64 {
	u := s.Float64()
	acc := 0.0
	for _, rf := range EColiRadii {
		acc += rf.Fraction
		if u < acc {
			return rf.Radius
		}
	}
	return EColiRadii[len(EColiRadii)-1].Radius
}

// System is a collection of spheres in a cubic periodic box.
type System struct {
	N      int
	Box    float64     // edge length, Angstroms
	Pos    []blas.Vec3 // positions, may be read in place
	Radius []float64   // sphere radii
	Phi    float64     // target volume occupancy used at construction
}

// Options configures system generation.
type Options struct {
	// N is the particle count.
	N int
	// Phi is the target volume occupancy in (0, 0.55].
	Phi float64
	// Seed drives all randomness.
	Seed uint64
	// MonodisperseRadius, if positive, uses equal spheres of this
	// radius instead of the Table IV distribution.
	MonodisperseRadius float64
	// MaxRelaxSweeps bounds the overlap-relaxation iterations
	// (default 400).
	MaxRelaxSweeps int
}

// New generates an overlap-free periodic packing. It returns an error
// if the requested occupancy cannot be relaxed to an overlap-free
// state within the sweep budget.
func New(opt Options) (*System, error) {
	if opt.N <= 0 {
		return nil, errors.New("particles: N must be positive")
	}
	if opt.Phi <= 0 || opt.Phi > 0.55 {
		return nil, fmt.Errorf("particles: Phi %v out of range (0, 0.55]", opt.Phi)
	}
	s := rng.Substream(opt.Seed, 0xC0FFEE)
	var radii []float64
	if opt.MonodisperseRadius > 0 {
		radii = make([]float64, opt.N)
		for i := range radii {
			radii[i] = opt.MonodisperseRadius
		}
	} else {
		radii = SampleRadii(s, opt.N)
	}
	var vol float64
	for _, r := range radii {
		vol += 4.0 / 3.0 * math.Pi * r * r * r
	}
	box := math.Cbrt(vol / opt.Phi)

	sys := &System{
		N:      opt.N,
		Box:    box,
		Pos:    make([]blas.Vec3, opt.N),
		Radius: radii,
		Phi:    opt.Phi,
	}
	// Jittered-lattice initial placement: cells of a cubic lattice
	// hold at most one particle each, so only oversized neighbors
	// start overlapped and the relaxation below converges in a few
	// sweeps even at high occupancy (a fully random start needs
	// hundreds of sweeps at phi = 0.5).
	g := 1
	for g*g*g < opt.N {
		g++
	}
	cellW := box / float64(g)
	perm := make([]int, g*g*g)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range sys.Pos {
		c := perm[i]
		ix, iy, iz := c/(g*g), (c/g)%g, c%g
		jitter := func() float64 { return (0.1 + 0.8*s.Float64()) * cellW }
		sys.Pos[i] = blas.Vec3{
			float64(ix)*cellW + jitter(),
			float64(iy)*cellW + jitter(),
			float64(iz)*cellW + jitter(),
		}
		sys.Pos[i] = neighbor.Wrap(sys.Pos[i], box)
	}
	maxSweeps := opt.MaxRelaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 400
	}
	if err := sys.relax(maxSweeps); err != nil {
		return nil, err
	}
	sys.sortSpatially()
	return sys, nil
}

// sortSpatially renumbers particles in cell order so that
// geometrically close particles get nearby indices. Interaction
// matrices assembled from the system then have clustered column
// indices, which is what gives SPMV/GSPMV its cache locality — the
// standard "ordering" optimization of the SPMV literature the paper
// cites. Labels are physically arbitrary, so this changes nothing
// observable.
func (sys *System) sortSpatially() {
	g := int(sys.Box / (2 * sys.MaxRadius()))
	if g < 1 {
		g = 1
	}
	cell := make([]int, sys.N)
	for i, p := range sys.Pos {
		w := neighbor.Wrap(p, sys.Box)
		cx := int(w[0] / sys.Box * float64(g))
		cy := int(w[1] / sys.Box * float64(g))
		cz := int(w[2] / sys.Box * float64(g))
		if cx >= g {
			cx = g - 1
		}
		if cy >= g {
			cy = g - 1
		}
		if cz >= g {
			cz = g - 1
		}
		cell[i] = (cx*g+cy)*g + cz
	}
	order := make([]int, sys.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cell[order[a]] < cell[order[b]] })
	pos := make([]blas.Vec3, sys.N)
	rad := make([]float64, sys.N)
	for newIdx, old := range order {
		pos[newIdx] = sys.Pos[old]
		rad[newIdx] = sys.Radius[old]
	}
	sys.Pos, sys.Radius = pos, rad
}

// relax removes overlaps by pushing overlapping pairs apart along
// their line of centers, half the overlap each, with a safety margin;
// sweeps repeat until no overlaps remain.
//
// The margin depends on occupancy: dilute systems push separated
// pairs to comfortable gaps (as an equilibrated suspension would sit)
// while crowded systems can only clear contact by a sliver. This is
// what makes the resistance-matrix conditioning degrade with phi —
// the paper's Table V trend: nearly-touching pairs at high volume
// fraction ill-condition R.
func (sys *System) relax(maxSweeps int) error {
	cutoff := 2*sys.MaxRadius() + 1e-9
	margin := 1.002
	if sys.Phi < 0.55 {
		margin = 1.002 + 0.2*(0.55-sys.Phi)
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		overlaps := 0
		neighbor.ForEachPair(sys.Pos, sys.Box, cutoff, func(p neighbor.Pair) {
			contact := sys.Radius[p.I] + sys.Radius[p.J]
			if p.R >= contact {
				return
			}
			overlaps++
			// Degenerate coincident points: pick an arbitrary axis.
			d := p.D
			r := p.R
			if r < 1e-12 {
				d = blas.Vec3{1, 0, 0}
				r = 1
			}
			push := (contact*margin - p.R) / 2
			dir := d.Scale(1 / r)
			sys.Pos[p.I] = neighbor.Wrap(sys.Pos[p.I].Sub(dir.Scale(push)), sys.Box)
			sys.Pos[p.J] = neighbor.Wrap(sys.Pos[p.J].Add(dir.Scale(push)), sys.Box)
		})
		if overlaps == 0 {
			return nil
		}
	}
	return fmt.Errorf("particles: packing did not relax to overlap-free state (phi=%v)", sys.Phi)
}

// MaxRadius returns the largest sphere radius.
func (sys *System) MaxRadius() float64 {
	var m float64
	for _, r := range sys.Radius {
		if r > m {
			m = r
		}
	}
	return m
}

// VolumeFraction returns the realized occupancy of the box.
func (sys *System) VolumeFraction() float64 {
	var vol float64
	for _, r := range sys.Radius {
		vol += 4.0 / 3.0 * math.Pi * r * r * r
	}
	return vol / (sys.Box * sys.Box * sys.Box)
}

// MaxOverlap returns the deepest pair overlap distance (0 if the
// packing is overlap-free).
func (sys *System) MaxOverlap() float64 {
	cutoff := 2*sys.MaxRadius() + 1e-9
	var worst float64
	neighbor.ForEachPair(sys.Pos, sys.Box, cutoff, func(p neighbor.Pair) {
		if ov := sys.Radius[p.I] + sys.Radius[p.J] - p.R; ov > worst {
			worst = ov
		}
	})
	return worst
}

// Clone returns a deep copy of the system.
func (sys *System) Clone() *System {
	c := *sys
	c.Pos = append([]blas.Vec3(nil), sys.Pos...)
	c.Radius = append([]float64(nil), sys.Radius...)
	return &c
}

// DisplacedFrom sets this system's positions to base's positions
// advanced by dt*u, leaving base untouched. The two systems must have
// identical N and Box.
func (sys *System) DisplacedFrom(base *System, u []float64, dt float64) {
	if sys.N != base.N || sys.Box != base.Box {
		panic("particles: DisplacedFrom system mismatch")
	}
	if len(u) != 3*sys.N {
		panic("particles: DisplacedFrom velocity length mismatch")
	}
	for i := 0; i < sys.N; i++ {
		d := blas.Vec3{u[3*i], u[3*i+1], u[3*i+2]}.Scale(dt)
		sys.Pos[i] = neighbor.Wrap(base.Pos[i].Add(d), sys.Box)
	}
}
