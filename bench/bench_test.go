package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/rng"
)

// shortSizes runs every workload in milliseconds.
var shortSizes = sizes{
	sdN: 40, sdWarmMRHS: 1, sdWarm: 1, sdRateMRHS: 20, sdRate: 20,
	spmvNB: 400, spmvBand: 100, spmvWarm1: 4, spmvWarm16: 2, spmvRate1: 400, spmvRate16: 100,
	serveNB: 300, serveRate: 200, serveWarmOpen: 4,
	serveClients: 8, serveWarmClosed: 16, serveRateClosed: 400,
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentilesAndQuartiles(t *testing.T) {
	s := sample{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := s.median(); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := s.percentile(90); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := (sample{}).percentile(50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := s.quartiles()
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := s.spread(); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = sample{3, 1, 2}.quartiles()
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 3) {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := s.maxPairwiseRel(); !near(got, 9) {
		t.Errorf("max pairwise = %v, want 9", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: spanOp, parent: -1, start: 0, end: 100 * ms},
		{name: spanBuild, parent: 0, start: 10 * ms, end: 30 * ms},
		{name: spanMul, parent: 1, start: 12 * ms, end: 20 * ms},
		{name: spanMul, parent: 0, start: 40 * ms, end: 90 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{30 * ms, 12 * ms, 8 * ms, 50 * ms}
	var sum time.Duration
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %v, the op took %v", sum, spans[0].dur())
	}
	if n := negativeSelf(spans); n != 0 {
		t.Errorf("negativeSelf = %d on nested spans", n)
	}
	tables := selfShares(spans)
	if rows := tables["op"]; len(tables) != 1 || len(rows) != 3 || rows[0].key != "bcrs.mul" || rows[0].count != 2 || rows[0].self != 58*ms {
		t.Errorf("shares = %+v", tables)
	}
	// A child that outlasts its parent is caught.
	spans[2].end = 60 * ms
	if n := negativeSelf(spans); n != 1 {
		t.Errorf("negativeSelf = %d with an overlong child, want 1", n)
	}
}

func TestTrackParents(t *testing.T) {
	tr := newTracer()
	defer tr.close()
	k := tr.track()
	k.op = 7
	op := k.begin(spanOp, phaseNone, 0)
	b := k.begin(spanBuild, phaseNone, 0)
	k.end(b)
	m := k.begin(spanMul, phaseCheb, 16)
	k.end(m)
	k.end(op)
	if len(tr.spans) != 3 || len(k.open) != 0 {
		t.Fatalf("%d spans, %d open", len(tr.spans), len(k.open))
	}
	if tr.spans[op].parent != -1 || tr.spans[b].parent != int32(op) || tr.spans[m].parent != int32(op) {
		t.Errorf("parents = %d %d %d", tr.spans[op].parent, tr.spans[b].parent, tr.spans[m].parent)
	}
	if s := tr.spans[m]; s.m != 16 || s.tag != phaseCheb || s.op != 7 || s.end < s.start {
		t.Errorf("multiply span = %+v", s)
	}
	if negativeSelf(tr.spans) != 0 {
		t.Error("children exceed their parent")
	}
	tr.reset()
	if len(tr.spans) != 0 {
		t.Error("reset kept spans")
	}
}

func TestArrivalsAreSeeded(t *testing.T) {
	a, b, c := arrivals(3, 200, 40), arrivals(3, 200, 40), arrivals(4, 200, 40)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("due times not ordered at %d", i)
		}
	}
	if !same || !differ {
		t.Errorf("same seed equal: %v, other seed differs: %v", same, differ)
	}
	if a[0] != 0 || a[len(a)-1] >= 5*time.Second {
		t.Errorf("200 arrivals at 40/s span %v..%v, want 0..<5s", a[0], a[len(a)-1])
	}
}

func TestRefMulMatchesKernels(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 50, BlocksPerRow: 6, Seed: 9})
	x := make([]float64, a.N())
	rng.New(1).FillNormal(x)
	want := make([]float64, a.N())
	a.MulVec(want, x)
	got := multivec.New(a.N(), 1)
	refMul(a, got, multivec.FromVector(x))
	if e := maxRelDiff(got.Data, want); e > 1e-13 {
		t.Errorf("refMul differs from MulVec by %g", e)
	}

	xs, ys, ref := multivec.New(a.N(), 4), multivec.New(a.N(), 4), multivec.New(a.N(), 4)
	rng.New(2).FillNormal(xs.Data)
	a.Mul(ys, xs)
	refMul(a, ref, xs)
	if e := maxRelDiff(ref.Data, ys.Data); e > 1e-13 {
		t.Errorf("refMul differs from Mul at m=4 by %g", e)
	}
	if err := checkResidual(a, x, want, 1e-6); err != nil {
		t.Errorf("exact solution rejected: %v", err)
	}
	if err := checkResidual(a, x, x, 1e-6); err == nil {
		t.Error("wrong solution accepted")
	}
}

// meterOf returns a speed meter that logged the given probes.
func meterOf(at []time.Duration, slow []float64) *speedMeter {
	m := newSpeedMeter()
	m.at, m.slow = append(m.at, at...), append(m.slow, slow...)
	return m
}

// The probes of an interval are those that ended inside it, or else
// its two neighbours; the speed is the mean of slowness^-sensitivity.
func TestSpeedOfAnInterval(t *testing.T) {
	ms := time.Millisecond
	m := meterOf([]time.Duration{10 * ms, 20 * ms, 30 * ms, 40 * ms}, []float64{1, 2, 4, 1})
	for _, c := range []struct {
		a, b time.Duration
		want []float64
	}{
		{15 * ms, 35 * ms, []float64{2, 4}}, // inside
		{20 * ms, 30 * ms, []float64{2, 4}}, // the ends count
		{21 * ms, 29 * ms, []float64{2, 4}}, // none inside: both neighbours
		{0, 5 * ms, []float64{1}},           // before the first probe
		{45 * ms, 50 * ms, []float64{1}},    // after the last
	} {
		got := m.probes(c.a, c.b)
		if len(got) != len(c.want) {
			t.Errorf("probes(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("probes(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
	if got := m.speed(15*ms, 35*ms, 1); !near(got, (0.5+0.25)/2) {
		t.Errorf("speed at sensitivity 1 = %v, want 0.375", got)
	}
	if got := m.speed(15*ms, 35*ms, 0.5); !near(got, (math.Sqrt(0.5)+0.5)/2) {
		t.Errorf("speed at sensitivity 0.5 = %v", got)
	}
	if got := m.speed(0, 5*ms, 0.8); !near(got, 1) {
		t.Errorf("speed beside a probe of slowness 1 = %v, want 1", got)
	}
	if got := newSpeedMeter().speed(0, ms, 1); got != 1 {
		t.Errorf("speed without probes = %v, want 1", got)
	}
}

// A probe reads the same matrix slice by slice, wraps around, and
// reports a positive slowness; a meter without a prober logs nothing.
func TestProber(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 30, BlocksPerRow: 4, Seed: 3})
	p := newProber(a, ones(a.N()), 40, 10)
	want := multivec.New(a.N(), 1)
	refMul(a, want, p.x)
	rows := 0
	for done := 0; done < 3*a.NNZB(); { // three times round the matrix
		before := p.row
		done += p.mulRows(10)
		rows += (p.row - before + a.NB()) % a.NB()
	}
	if rows < 3*a.NB() || p.row >= a.NB() {
		t.Errorf("%d rows multiplied, next row %d of %d", rows, p.row, a.NB())
	}
	if e := maxRelDiff(p.y.Data, want.Data); e > 1e-13 {
		t.Errorf("the probe's product differs from the reference by %g", e)
	}
	if v := p.slowness(); !(v > 0) {
		t.Errorf("slowness = %v", v)
	}
	m := newSpeedMeter()
	m.sample()
	m.follow(a, 40, 10)
	m.sample()
	m.maybeSample() // too soon after the last
	if len(m.slow) != 1 || len(m.at) != 1 {
		t.Errorf("%d probes logged, want 1", len(m.slow))
	}
	b := bcrs.Random(bcrs.RandomOptions{NB: 30, BlocksPerRow: 5, Seed: 4})
	x := m.p.x
	m.follow(b, 40, 10)
	if m.p.a != b || m.p.x != x {
		t.Error("follow did not move the probe to the new matrix and keep its vectors")
	}
}

func TestFitSensitivity(t *testing.T) {
	var ms, slow []float64
	for i := 0; i < 50; i++ {
		v := 1 + float64(i%5)/4
		slow = append(slow, v)
		ms = append(ms, 3*math.Pow(v, 0.7))
	}
	slope, spread := fitSensitivity(ms, slow)
	if !near(slope, 0.7) || !(spread > 0.1) {
		t.Errorf("slope %v over spread %v, want 0.7", slope, spread)
	}
	if slope, _ := fitSensitivity([]float64{1, 1}, []float64{2, 2}); slope != 0 {
		t.Errorf("slope on a constant host = %v, want 0", slope)
	}
}

// The end-to-end numbers are the median scaled time of the correct ops
// and the correct ops over the scaled time they had, which depends on
// how the workload's ops follow one another.
func TestEndToEnd(t *testing.T) {
	ms := time.Millisecond
	// Four ops of 10 ms back to back; the host ran at half speed during
	// the last two.
	var ops []opRec
	var at []time.Duration
	var slow []float64
	for i := 0; i < 4; i++ {
		start := time.Duration(i) * 11 * ms
		ops = append(ops, opRec{start: start, end: start + 10*ms, ok: i != 1})
		at = append(at, start+5*ms)
		slow = append(slow, []float64{1, 1, 2, 2}[i])
	}
	m := meterOf(at, slow)
	w := workload{loop: backToBack, sensitivity: 0.5}
	half := math.Sqrt(0.5) // the speed beside a probe of slowness 2
	p50, rate, failed := endToEnd(ops, w, m, io.Discard)
	// Scaled, the correct ops took 10 ms, 10*half and 10*half, and all
	// four together 20 + 20*half.
	if !near(p50, 10*half) || !near(rate, 3/(0.020+0.020*half)) || failed != 1 {
		t.Errorf("back to back: p50 %v ms, %v ops/s, %d failed; want %v, %v, 1", p50, rate, failed, 10*half, 3/(0.020+0.020*half))
	}
	// Closed loop: 43 ms of wall time at the mean speed of the run.
	w.loop = closedLoop
	if _, rate, _ := endToEnd(ops, w, m, io.Discard); !near(rate, 3/(0.043*(1+half)/2)) {
		t.Errorf("closed loop: %v ops/s, want %v", rate, 3/(0.043*(1+half)/2))
	}
	// Open loop: the schedule's wall time as it is.
	w.loop = openLoop
	if _, rate, _ := endToEnd(ops, w, m, io.Discard); !near(rate, 3/0.043) {
		t.Errorf("open loop: %v ops/s, want %v", rate, 3/0.043)
	}
	// On a host that never slows the clock's times stand.
	if p50, _, _ := endToEnd(ops, w, meterOf(at, []float64{1, 1, 1, 1}), io.Discard); !near(p50, 10) {
		t.Errorf("quiet host: p50 %v ms, want 10", p50)
	}
	if p50, rate, failed := endToEnd(nil, w, m, io.Discard); p50 != 0 || rate != 0 || failed != 0 {
		t.Error("no ops must give zeros")
	}
	if p50, failed := rawMedian(ops); !near(p50, 10) || failed != 1 {
		t.Errorf("rawMedian = %v, %d", p50, failed)
	}
}

// A timed loop runs its count, calls between outside the timed
// interval, and stops starting ops once the limit has passed.
func TestTimedLoop(t *testing.T) {
	var inOp, outside int
	ops := timedLoop(5, time.Hour, nil, func() error { inOp++; return nil }, func(i int) {
		if i != outside {
			t.Errorf("between(%d) after %d ops", i, outside+1)
		}
		outside++
	})
	if len(ops) != 5 || inOp != 5 || outside != 5 {
		t.Errorf("%d ops recorded, %d run, %d between", len(ops), inOp, outside)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].start < ops[i-1].end {
			t.Errorf("op %d starts before op %d ends", i, i-1)
		}
	}
	ops = timedLoop(1000, 5*time.Millisecond, nil, func() error { time.Sleep(time.Millisecond); return nil }, nil)
	if len(ops) == 0 || len(ops) > 6 {
		t.Errorf("%d ops of 1 ms started within a limit of 5 ms", len(ops))
	}
}

type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and the tables in this package name the same things.
func TestSpecMatchesTables(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) || len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("metric counts differ: %d/%d end to end, %d/%d per layer",
			len(spec.EndToEnd), len(endToEndMetrics), len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: %+v, want %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, want %+v", i, m, d)
		}
	}
}

// Every workload, at a size that takes milliseconds, untraced and
// traced: the run is correct and prints every metric of
// BENCHMARK.json exactly once, with its unit, before the result line.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runOnce(w, 5, 0.3, traced, shortSizes, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			defs, want := endToEndMetrics, map[string]string{}
			for _, m := range spec.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				defs, want = perLayerMetrics, map[string]string{}
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			var out bytes.Buffer
			printReport(&out, defs, rep)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			seen := map[string]int{}
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				if len(f) != 3 || want[f[0]] != f[2] {
					t.Errorf("%s traced=%v: line %q", w.name, traced, line)
					continue
				}
				seen[f[0]]++
			}
			for name := range want {
				if seen[name] != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", w.name, traced, name, seen[name])
				}
			}
			last, _, err := lastReport(out.Bytes())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.name, traced, len(last.Metrics), len(want))
			}
			for name, m := range last.Metrics {
				if want[name] != m.Unit {
					t.Errorf("%s traced=%v: result metric %s has unit %q", w.name, traced, name, m.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// Closed-loop clients draw every ticket exactly once, and two set-ups
// of one seed agree while another seed does not.
func TestSetupsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		var digests [3]uint64
		for i, seed := range []uint64{11, 11, 12} {
			in, err := w.setup(seed, shortSizes, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			digests[i] = in.digest()
			if s, ok := in.(*serveInstance); ok && i == 0 {
				reqs := s.runClosedLoop(4, 40, time.Hour)
				if len(reqs) != 40 {
					t.Errorf("%s: %d requests for 40 tickets", w.name, len(reqs))
				}
				for j, r := range reqs {
					if r.idx != j {
						t.Errorf("%s: ticket %d at position %d", w.name, r.idx, j)
						break
					}
				}
			}
			in.close()
		}
		if digests[0] != digests[1] || digests[0] == digests[2] {
			t.Errorf("%s: digests %x %x %x", w.name, digests[0], digests[1], digests[2])
		}
	}
}
