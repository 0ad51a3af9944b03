package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/model"
)

// opRec is one timed op. In an open loop start is the time the op was
// due, not the time it was sent, so that a stall counts against every
// op it delayed.
type opRec struct {
	start, end time.Duration
	ok         bool
}

func (o opRec) ms() float64 { return float64(o.end-o.start) / float64(time.Millisecond) }

// instance is one set-up of a workload: generated inputs, the program
// objects built on them, verified and warmed up.
type instance interface {
	// digest covers the generated inputs and the results of the
	// verification and warm-up ops, all of which one seed fixes.
	digest() uint64
	// rate is the number of timed ops per second of --seconds. It is a
	// constant of the workload, close to what the reference host
	// sustains, so that a run is a fixed number of ops: two commits do
	// the same work and the counts repeat exactly.
	rate() float64
	// run executes n ops, or as many as it could start before limit
	// had passed, and checks their outputs. The error reports a failed
	// output check.
	run(n int, limit time.Duration) ([]opRec, error)
	// results hashes what the timed ops computed and one seed fixes:
	// iteration totals, checksums, products.
	results() uint64
	// layers adds the per-layer metrics of the traced run just made.
	layers(ops []opRec, out metrics)
	close()
}

// sizes are the workload dimensions. Only the tests use anything but
// fullSizes: they run every workload at a size that takes
// milliseconds.
type sizes struct {
	sdN                   int
	sdWarmMRHS, sdWarm    int     // warm-up ops of sd_mrhs and of sd_orig
	sdRateMRHS, sdRate    float64 // timed ops per second of --seconds
	spmvNB, spmvBand      int
	spmvWarm1, spmvWarm16 int // warm-up ops at m=1 and at m=16
	spmvRate1, spmvRate16 float64
	serveNB               int
	serveRate             float64 // open-loop arrivals per second
	serveWarmOpen         int     // warm-up requests of the open loop's set-up, one at a time
	serveClients          int     // closed-loop outstanding requests
	serveWarmClosed       int     // warm-up requests of the closed loop
	serveRateClosed       float64 // timed closed-loop requests per second of --seconds
}

// fullSizes. Footprints, beside the reference host's 2 x 4 MiB of L2
// and 260 MiB of shared L3: the gspmv matrix is 22 MB in general and
// 11 MB in symmetric storage, eight times the L2 of the core that
// multiplies and an eighth of the L3, so a multiply streams its matrix
// from L3 or memory; the served matrix is 10.6 MB. On the quiet
// reference host an SD op (16 steps at N=1000) takes 0.72 s by
// Algorithm 1 and 0.85 s by Algorithm 2, a gspmv pair 3.2 ms at m=1 and
// 9.8 ms at m=16, a lone served solve 9 ms back to back and 11.5 ms at
// 12.5/s, and a saturated m=32 dispatch 100 ms; while other guests keep
// the host busy everything takes up to 1.7 times as long. The rates
// make the timed ops of a run take three quarters of --seconds on the
// quiet host, and the warm-up counts make a set-up take 2 s. Both are
// kept this short because an acceptance makes 136 runs in under an
// hour, on the busy host too.
var fullSizes = sizes{
	sdN: 1000, sdWarmMRHS: 1, sdWarm: 1, sdRateMRHS: 0.8, sdRate: 1,
	spmvNB: 12000, spmvBand: 1200, spmvWarm1: 500, spmvWarm16: 150, spmvRate1: 230, spmvRate16: 76,
	serveNB: 6000, serveRate: 12.5, serveWarmOpen: 200,
	serveClients: 64, serveWarmClosed: 448, serveRateClosed: 204.8,
}

// pinnedMachine is the (B, F) pair the serving tier's batching model
// is given. A live calibration moved by a third between consecutive
// runs on the reference host, which made the batching policy itself a
// source of noise.
var pinnedMachine = model.Machine{B: 28e9, F: 8e9}

// loop says how a workload's ops follow one another, which decides
// what ops_per_s divides by.
type loop int

const (
	backToBack loop = iota // one op after another on one thread, a probe between them
	closedLoop             // a fixed number of requests outstanding
	openLoop               // requests sent on a schedule, whatever the server does
)

type workload struct {
	name  string
	setup func(seed uint64, sz sizes, tr *tracer) (instance, error)
	loop  loop
	// sensitivity is how much of a probe's slow-down the workload's ops
	// show, on a logarithmic scale: an op beside which the probes ran s
	// times slower is taken to have run s^sensitivity times slower. The
	// probe is a multiply, so the multiplies of gspmv_* slow nearly as
	// it does; a served solve is half multiplies and half vector work;
	// an SD step is mostly assembly, which allocates and chases pointers
	// and waits more than it computes, and waiting does not slow when
	// the core is shared. The values are the slopes of log(op time) on
	// log(slowness) measured on the reference host over runs during
	// which the host's speed changed (bench/README.md has the tables);
	// every run prints the slope its own ops showed beside the one used.
	sensitivity float64
}

var workloads = []workload{
	{"sd_mrhs", setupSD(true), backToBack, 0.8},
	{"sd_orig", setupSD(false), backToBack, 0.8},
	{"gspmv_m1", setupSPMV(1), backToBack, 0.95},
	{"gspmv_m16", setupSPMV(16), backToBack, 0.95},
	{"serve_underload", setupServe(false), openLoop, 0.9},
	{"serve_saturated", setupServe(true), closedLoop, 0.9},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

const (
	// setups is how many times an untraced run sets the workload up.
	// The set-ups must agree on their digests, and the median of their
	// times is reported.
	setups = 2
	// minOps keeps a very short run long enough for a median.
	minOps = 4
	// overrun is how far past --seconds a run may go before it stops
	// starting ops. The count is fixed, so a slow host makes a run
	// longer, and the reference host is at times half as fast as at
	// others; but all the runs of an acceptance have an hour.
	overrun = 1.3
)

// opCount is the number of timed ops of a run of the given length.
func opCount(in instance, seconds float64) int {
	n := int(math.Round(in.rate() * seconds))
	if n < minOps {
		n = minOps
	}
	return n
}

// runOnce measures one workload. Untraced, it reports the end-to-end
// metrics; traced, it makes a short untraced run for the tracing
// overhead and then a traced run for the per-layer metrics.
func runOnce(w workload, seed uint64, seconds float64, traced bool, sz sizes, log io.Writer) (report, error) {
	if !traced {
		return runEndToEnd(w, seed, seconds, sz, log)
	}
	return runTraced(w, seed, seconds, sz, log)
}

func limitOf(seconds float64) time.Duration {
	return time.Duration(overrun * seconds * float64(time.Second))
}

// runEndToEnd measures a workload untraced. When the hypervisor took
// more than maxStolen of the CPU time the guest wanted during the
// measurement, the numbers say how busy the host was and nothing about
// the program, so the whole measurement, set-ups included, is made
// again, attempts times at most; the attempt with the least stolen is
// reported.
func runEndToEnd(w workload, seed uint64, seconds float64, sz sizes, log io.Writer) (report, error) {
	var best report
	least := math.Inf(1)
	for i := 0; i < attempts; i++ {
		stolen := stolenShare()
		rep, err := measure(w, seed, seconds, sz, log)
		if err != nil {
			return report{}, err
		}
		share := stolen()
		fmt.Fprintf(log, "host: %.1f%% of the CPU time wanted during the measurement was stolen\n", 100*share)
		if share < least {
			best, least = rep, share
		}
		if share <= maxStolen {
			break
		}
	}
	return best, nil
}

// A few percent stolen move a median by less than that and are let
// pass: a host that steals a little all the time must not triple the
// length of every run.
const (
	attempts  = 3
	maxStolen = 0.10
)

// measure sets the workload up twice and times its ops once.
func measure(w workload, seed uint64, seconds float64, sz sizes, log io.Writer) (report, error) {
	var (
		inst          instance
		times, scaled sample
	)
	for i := 0; i < setups; i++ {
		meter.sample()
		t0 := now()
		in, err := w.setup(seed, sz, nil)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		t1 := now()
		times = append(times, (t1 - t0).Seconds())
		scaled = append(scaled, (t1-t0).Seconds()*meter.speed(t0, t1, w.sensitivity))
		if inst != nil {
			first := inst.digest()
			inst.close()
			if in.digest() != first {
				in.close()
				return report{}, fmt.Errorf("set-up %d of seed %d gave digest %016x, the first gave %016x", i+1, seed, in.digest(), first)
			}
		}
		inst = in
	}
	defer inst.close()
	fmt.Fprintf(log, "set-ups %.4v s on the clock, %.4v s scaled\n", []float64(times), []float64(scaled))

	n := opCount(inst, seconds)
	ops, checkErr := inst.run(n, limitOf(seconds))
	if checkErr != nil {
		fmt.Fprintln(log, "output check failed:", checkErr)
	}
	p50, rate, failed := endToEnd(ops, w, meter, log)
	out := metrics{}
	out.set("setup_s", scaled.median())
	out.set("op_p50_ms", p50)
	out.set("ops_per_s", rate)
	fmt.Fprintf(log, "%d ops of %d, %d failed\n", len(ops), n, failed)
	fmt.Fprintf(log, "digest inputs %016x results %016x\n", inst.digest(), inst.results())
	return report{Correct: checkErr == nil && failed == 0, Attempted: len(ops), Failed: failed, Metrics: out.only(endToEndMetrics)}, nil
}

func runTraced(w workload, seed uint64, seconds float64, sz sizes, log io.Writer) (report, error) {
	// Three tenths of the run untraced, for the overhead of tracing,
	// then seven tenths traced.
	plain, err := w.setup(seed, sz, nil)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	nBase := opCount(plain, 0.3*seconds)
	base, checkErr := plain.run(nBase, limitOf(0.3*seconds))
	plain.close()
	if checkErr != nil {
		fmt.Fprintln(log, "output check failed:", checkErr)
	}

	tr := newTracer()
	defer tr.close()
	inst, err := w.setup(seed, sz, tr)
	if err != nil {
		return report{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer inst.close()
	// Tracing must not change what the program computes.
	if inst.digest() != plain.digest() {
		return report{}, fmt.Errorf("traced set-up gave digest %016x, the untraced one %016x", inst.digest(), plain.digest())
	}
	tr.reset()

	var before, after, sampled runtime.MemStats
	var heapPeak uint64
	runtime.ReadMemStats(&before)
	stopSampling := every(20*time.Millisecond, func() {
		runtime.ReadMemStats(&sampled)
		if sampled.HeapInuse > heapPeak {
			heapPeak = sampled.HeapInuse
		}
	})
	n := opCount(inst, 0.7*seconds)
	ops, err2 := inst.run(n, limitOf(0.7*seconds))
	stopSampling()
	runtime.ReadMemStats(&after)
	if err2 != nil {
		fmt.Fprintln(log, "output check failed:", err2)
		checkErr = err2
	}
	if tr.dropped > 0 {
		return report{}, fmt.Errorf("span buffer full: %d spans dropped", tr.dropped)
	}
	if n := negativeSelf(tr.spans); n > 0 {
		return report{}, fmt.Errorf("%d spans are shorter than their children", n)
	}

	out := metrics{}
	inst.layers(ops, out)
	// The traced run reports times as the clock gave them: its metrics
	// have no bounds, and spans cannot be scaled one by one.
	basep50, baseFailed := rawMedian(base)
	p50, failed := rawMedian(ops)
	failed += baseFailed
	out.set("trace.overhead_frac", ratio(p50, basep50)-1)
	out.set("trace.spans", float64(len(tr.spans)))
	out.set("runtime.heap_peak_mb", float64(heapPeak)/(1<<20))
	out.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	out.set("runtime.allocs_per_op", ratio(float64(after.Mallocs-before.Mallocs), float64(len(ops))))

	fmt.Fprintf(log, "untraced %d ops p50 %.4g ms, traced %d ops p50 %.4g ms\n", len(base), basep50, len(ops), p50)
	printShares(log, tr.spans)
	return report{Correct: checkErr == nil && failed == 0, Attempted: len(base) + len(ops), Failed: failed, Metrics: out.only(perLayerMetrics)}, nil
}

// spanOf returns the start of the first op and the end of the last
// one to finish.
func spanOf(ops []opRec) (first, last time.Duration) {
	if len(ops) == 0 {
		return 0, 0
	}
	first, last = ops[0].start, ops[0].end
	for _, o := range ops {
		if o.start < first {
			first = o.start
		}
		if o.end > last {
			last = o.end
		}
	}
	return first, last
}

// rawMedian returns the median wall time of the correct ops, in
// milliseconds, and the number of ops that failed.
func rawMedian(ops []opRec) (p50ms float64, failed int) {
	var ms sample
	for _, o := range ops {
		if o.ok {
			ms = append(ms, o.ms())
		} else {
			failed++
		}
	}
	return ms.median(), failed
}

// endToEnd reduces timed ops to the median scaled time of a correct
// op, the rate of correct ops, and the number of ops that failed. The
// rate divides the correct ops by the scaled time they had: back to
// back, the sum of the ops' scaled times (the probes between them are
// not the program's); in the closed loop, the run's wall time scaled by
// the speed of the whole run; in the open loop, where the schedule sets
// the rate and the server idles in between, the wall time as it is.
func endToEnd(ops []opRec, w workload, m *speedMeter, log io.Writer) (p50ms, perSecond float64, failed int) {
	var raw, scaled, slow sample
	var busy float64
	for _, o := range ops {
		s := o.ms() * m.speed(o.start, o.end, w.sensitivity)
		busy += s / 1e3
		if !o.ok {
			failed++
			continue
		}
		raw = append(raw, o.ms())
		scaled = append(scaled, s)
		slow = append(slow, sample(m.probes(o.start, o.end)).mean())
	}
	if len(scaled) == 0 {
		return 0, 0, failed
	}
	first, last := spanOf(ops)
	wall := (last - first).Seconds()
	switch w.loop {
	case backToBack:
		perSecond = ratio(float64(len(scaled)), busy)
	case closedLoop:
		perSecond = ratio(float64(len(scaled)), wall*m.speed(first, last, w.sensitivity))
	case openLoop:
		perSecond = ratio(float64(len(scaled)), wall)
	}
	all := sample(m.probes(first, last))
	slope, spread := fitSensitivity(raw, slow)
	fmt.Fprintf(log, "clock: %.2f s, op p50 %.5g ms; scaled: op p50 %.5g ms\n", wall, raw.median(), scaled.median())
	fmt.Fprintf(log, "host: %d probes ran %.2f (p10), %.2f (p50), %.2f (p90) times slower than on the quiet reference host; sensitivity used %.2f, this run's ops showed %.2f over a spread of %.3f\n",
		len(all), all.percentile(10), all.median(), all.percentile(90), w.sensitivity, slope, spread)
	return scaled.median(), perSecond, failed
}

// timedLoop runs op n times back to back, stopping early once limit
// has passed. A probe of the host's speed runs before the first op and
// after every op, and then between, if not nil; both are outside the
// op's timed interval and its span.
func timedLoop(n int, limit time.Duration, k *track, op func() error, between func(i int)) []opRec {
	ops := make([]opRec, 0, n)
	meter.sample()
	t0 := now()
	for i := 0; i < n; i++ {
		start := now()
		if start-t0 >= limit {
			break
		}
		id := -1
		if k != nil {
			k.op = i
			id = k.begin(spanOp, phaseNone, 0)
		}
		err := op()
		if k != nil {
			k.end(id)
			k.op = -1
		}
		ops = append(ops, opRec{start: start, end: now(), ok: err == nil})
		meter.sample()
		if between != nil {
			between(i)
		}
	}
	return ops
}

func printShares(log io.Writer, spans []span) {
	tables := selfShares(spans)
	var roots []string
	for r := range tables {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		var total time.Duration
		for _, row := range tables[r] {
			total += row.self
		}
		fmt.Fprintf(log, "%-34s %8s %10s %7s\n", "self time under "+r, "count", "seconds", "share")
		for _, row := range tables[r] {
			fmt.Fprintf(log, "  %-32s %8d %10.4f %6.1f%%\n", row.key, row.count, row.self.Seconds(), 100*ratio(row.self.Seconds(), total.Seconds()))
		}
	}
}
