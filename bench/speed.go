package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/bcrs"
	"repro/internal/multivec"
)

// The reference host shares each physical core with another guest's
// hardware thread, and its last-level cache and memory with every
// guest. While the other thread is busy, code that keeps the core's
// execution units full runs 1.5 to 2 times slower (a chain of dependent
// instructions does not slow at all, and /proc/stat reports nothing
// stolen); while other guests stream memory, a matrix that lived in the
// cache comes from memory. The busy share changes from none to all
// within minutes, so no statistic of wall times alone repeats from one
// set of runs to the next: the median gspmv_m1 op read 3.1 ms and
// 6.4 ms in runs two minutes apart. The benchmark therefore measures
// the host's speed beside the work it times. A probe, a fixed piece of
// work owned by this directory, runs on the working thread between or
// inside the ops, and every timed interval is scaled by how much slower
// than on a quiet host the probes beside it ran.
//
// The probe is a naive multiply of the next few block rows of the
// workload's own matrix, so that it loads what the ops load from where
// they load it, and slows with them whichever of the two the cause is.
// It shares no code with the program (it goes through the matrix's
// public accessors), so a change to the program cannot move it.

// prober multiplies slices of a matrix, one after another, by m
// vectors.
type prober struct {
	a       *bcrs.Matrix
	x, y    *multivec.MultiVec
	blocks  int     // blocks per probe, about
	quietNS float64 // per block, on the quiet reference host
	row     int     // where the next slice starts
}

// probeParts is the number of parts a probe is timed in; its reading is
// the median part, so that an interrupt, which lands in one part, is
// not read as a slow host.
const probeParts = 4

// newProber returns a prober that multiplies a by x, which it only
// reads. quietNS is what one block takes on the reference host when
// nothing else runs on it. It is a unit, not a tuning value: scaled
// times are in "milliseconds of the quiet reference host", and a parent
// and a change are scaled by the same constant.
func newProber(a *bcrs.Matrix, x *multivec.MultiVec, blocks int, quietNS float64) *prober {
	return &prober{a: a, x: x, y: multivec.New(x.N, x.M), blocks: blocks, quietNS: quietNS}
}

// ones returns the vector a probe multiplies by where the workload has
// none of its own at hand.
func ones(n int) *multivec.MultiVec {
	x := multivec.New(n, 1)
	for i := range x.Data {
		x.Data[i] = 1
	}
	return x
}

// mulRows multiplies block rows from p.row on until it has done n
// blocks, wraps around at the last row, and returns the blocks done.
func (p *prober) mulRows(n int) int {
	m, done := p.x.M, 0
	for done < n {
		i := p.row
		if p.row++; p.row >= p.a.NB() {
			p.row = 0
		}
		lo, hi := p.a.RowBlocks(i)
		done += hi - lo
		y0, y1, y2 := p.y.Row(3*i), p.y.Row(3*i+1), p.y.Row(3*i+2)
		for t := 0; t < m; t++ {
			y0[t], y1[t], y2[t] = 0, 0, 0
		}
		for k := lo; k < hi; k++ {
			b := p.a.BlockAt(k)
			j := p.a.BlockCol(k)
			x0, x1, x2 := p.x.Row(3*j), p.x.Row(3*j+1), p.x.Row(3*j+2)
			for t := 0; t < m; t++ {
				y0[t] += b[0]*x0[t] + b[1]*x1[t] + b[2]*x2[t]
				y1[t] += b[3]*x0[t] + b[4]*x1[t] + b[5]*x2[t]
				y2[t] += b[6]*x0[t] + b[7]*x1[t] + b[8]*x2[t]
			}
		}
	}
	return done
}

// slowness runs one probe and returns how many times slower than on
// the quiet reference host it ran.
func (p *prober) slowness() float64 {
	if p.a.NNZB() == 0 {
		return 1
	}
	var parts [probeParts]float64
	t := now()
	for i := range parts {
		n := p.mulRows(p.blocks / probeParts)
		t1 := now()
		parts[i] = float64(t1-t) / float64(n)
		t = t1
	}
	return sample(parts[:]).median() / p.quietNS
}

// speedMeter is the log of the probes of one run.
type speedMeter struct {
	mu   sync.Mutex
	p    *prober
	at   []time.Duration // when each probe ended
	slow []float64       // its slowness
	last time.Duration
}

// maxProbes is room for a probe every probeGap of the longest run, so
// that the log does not grow while ops are timed.
const maxProbes = 1 << 16

// probeGap is the least time between two probes taken through
// maybeSample, which bounds their cost at a few percent of the thread.
const probeGap = 2 * time.Millisecond

func newSpeedMeter() *speedMeter {
	return &speedMeter{at: make([]time.Duration, 0, maxProbes), slow: make([]float64, 0, maxProbes)}
}

// meter is the run's speed meter. The work that is timed runs on the
// main goroutine or on the server's dispatcher, one at a time; the
// mutex is for the hand-over between them.
var meter = newSpeedMeter()

// use makes p the probe of the samples that follow. A set-up calls it
// as soon as it has a matrix.
func (s *speedMeter) use(p *prober) {
	s.mu.Lock()
	s.p = p
	s.mu.Unlock()
}

// follow is use for a workload that builds a new matrix of the same
// size every few milliseconds: the probe moves on to a and keeps its
// vectors.
func (s *speedMeter) follow(a *bcrs.Matrix, blocks int, quietNS float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p != nil && s.p.x.N == a.N() && s.p.x.M == 1 {
		s.p.a = a
		return
	}
	s.p = newProber(a, ones(a.N()), blocks, quietNS)
}

// sample runs one probe on the calling thread and logs it. Before a
// set-up has a matrix there is nothing to probe with.
func (s *speedMeter) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p == nil {
		return
	}
	v := s.p.slowness()
	s.last = now()
	s.at = append(s.at, s.last)
	s.slow = append(s.slow, v)
}

// maybeSample is sample at most once every probeGap, for call sites
// that are reached thousands of times a second.
func (s *speedMeter) maybeSample() {
	s.mu.Lock()
	due := now()-s.last >= probeGap
	s.mu.Unlock()
	if due {
		s.sample()
	}
}

// probes returns the slowness of the probes that ended in [a, b]; when
// there is none, of the last one before a and the first one after b.
func (s *speedMeter) probes(a, b time.Duration) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.at), func(i int) bool { return s.at[i] >= a })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i] > b })
	if hi > lo {
		return s.slow[lo:hi]
	}
	var near []float64
	if lo > 0 {
		near = append(near, s.slow[lo-1])
	}
	if hi < len(s.slow) {
		near = append(near, s.slow[hi])
	}
	return near
}

// speed returns the share of the quiet reference host's speed at which
// work of the given sensitivity (see the workloads table) ran during
// [a, b]: the mean over the interval's probes of slowness^-sensitivity,
// and 1 when there is no probe to go by. Probes are spread evenly over
// a thread's busy time, so wall time times this mean is the time the
// same work takes at speed 1.
func (s *speedMeter) speed(a, b time.Duration, sensitivity float64) float64 {
	slow := s.probes(a, b)
	if len(slow) == 0 {
		return 1
	}
	var sum float64
	for _, v := range slow {
		sum += math.Pow(v, -sensitivity)
	}
	return sum / float64(len(slow))
}

// fitSensitivity returns the least-squares slope of log(op time) on
// log(slowness of the probes beside the op): the sensitivity this run's
// own ops showed. It is printed, never used, so that a constant gone
// stale is seen; it means something only in a run during which the
// host's speed changed, which the spread of log(slowness) beside it
// tells.
func fitSensitivity(ms, slow []float64) (slope, spread float64) {
	n := float64(len(ms))
	if n < 2 {
		return 0, 0
	}
	var mx, my float64
	for i := range ms {
		mx += math.Log(slow[i]) / n
		my += math.Log(ms[i]) / n
	}
	var sxx, sxy float64
	for i := range ms {
		dx := math.Log(slow[i]) - mx
		sxx += dx * dx
		sxy += dx * (math.Log(ms[i]) - my)
	}
	return ratio(sxy, sxx), math.Sqrt(sxx / n)
}
