package main

import (
	"fmt"
	"time"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/multivec"
	"repro/internal/perf"
	"repro/internal/rng"
)

// spmvInstance multiplies one banded random matrix, in general and in
// half (symmetric) storage, by one block of m vectors. One op is the
// general multiply followed by the symmetric one. At m=1 the op is
// bound by matrix traffic, at m=16 by vector traffic and flops, so a
// kernel change that trades one for the other shows on one of the two
// workloads as a regression.
type spmvInstance struct {
	m        int
	sz       sizes
	a        *bcrs.Matrix
	s        *bcrs.SymMatrix
	x, x1    *multivec.MultiVec
	yg, ys   *multivec.MultiVec
	y1       *multivec.MultiVec
	want     []float64 // the general product as first computed
	dig      uint64
	k        *track
	baseline sample // m=1 general multiplies interleaved in a traced run, ms
}

// baselineBlock is the number of m=1 multiplies recorded after every
// hundredth op of a traced run at m>1.
const baselineBlock = 25

func setupSPMV(m int) func(seed uint64, sz sizes, tr *tracer) (instance, error) {
	return func(seed uint64, sz sizes, tr *tracer) (instance, error) {
		a := bcrs.Random(bcrs.RandomOptions{
			NB: sz.spmvNB, BlocksPerRow: 24, Bandwidth: sz.spmvBand, NoWrap: true,
			Seed: subSeed(seed, streamMatrix),
		})
		s, err := bcrs.NewSym(a)
		if err != nil {
			return nil, err
		}
		in := &spmvInstance{m: m, sz: sz, a: a, s: s}
		n := a.N()
		in.x, in.yg, in.ys = multivec.New(n, m), multivec.New(n, m), multivec.New(n, m)
		rng.Substream(seed, streamOperand).FillNormal(in.x.Data)
		// A probe multiplies 50 to 150 us' worth of the matrix by the ops'
		// own vectors; the ops take 3 and 10 ms.
		if m == 1 {
			meter.use(newProber(a, in.x, 4096, 13.0))
		} else {
			meter.use(newProber(a, in.x, 2048, 4.7*float64(m)))
		}
		if tr != nil {
			in.k = tr.track()
			in.x1, in.y1 = multivec.New(n, 1), multivec.New(n, 1)
			in.x.Col(0, in.x1.Data)
		}

		// Both kernels against the reference multiply at this m.
		ref := multivec.New(n, m)
		meter.sample()
		refMul(a, ref, in.x)
		meter.sample()
		in.op()
		for name, y := range map[string]*multivec.MultiVec{"general": in.yg, "symmetric": in.ys} {
			if e := maxRelDiff(y.Data, ref.Data); !(e <= 1e-12) {
				return nil, fmt.Errorf("%s product differs from the reference by %.3g", name, e)
			}
		}
		in.want = append([]float64(nil), in.yg.Data...)

		warm := sz.spmvWarm16
		if m == 1 {
			warm = sz.spmvWarm1
		}
		for i := 0; i < warm; i++ {
			in.op()
			meter.sample()
		}

		d := newDigest()
		d.matrix(a)
		d.floats(in.x.Data)
		d.floats(in.yg.Data)
		d.floats(in.ys.Data)
		in.dig = d.sum()
		return in, nil
	}
}

func (in *spmvInstance) op() {
	if in.k == nil {
		in.a.Mul(in.yg, in.x)
		in.s.Mul(in.ys, in.x)
		return
	}
	id := in.k.begin(spanGeneralMul, phaseNone, in.m)
	in.a.Mul(in.yg, in.x)
	in.k.end(id)
	id = in.k.begin(spanSymMul, phaseNone, in.m)
	in.s.Mul(in.ys, in.x)
	in.k.end(id)
}

func (in *spmvInstance) digest() uint64 { return in.dig }
func (in *spmvInstance) close()         {}

func (in *spmvInstance) rate() float64 {
	if in.m == 1 {
		return in.sz.spmvRate1
	}
	return in.sz.spmvRate16
}

// results covers both products as they stand after the last op.
func (in *spmvInstance) results() uint64 {
	d := newDigest()
	d.floats(in.yg.Data)
	d.floats(in.ys.Data)
	return d.sum()
}

func (in *spmvInstance) run(n int, limit time.Duration) ([]opRec, error) {
	// In a traced run every hundredth op is followed by a block of
	// m=1 multiplies, between the ops, for r(m) = T(m)/T(1). A block,
	// and not one multiply after every few ops, so that all but a
	// hundredth of the ops find the caches as an untraced run leaves
	// them; the block's first multiply is not recorded.
	var between func(i int)
	if in.k != nil && in.m > 1 {
		between = func(i int) {
			if i%100 != 99 {
				return
			}
			for j := 0; j <= baselineBlock; j++ {
				t0 := now()
				in.a.Mul(in.y1, in.x1)
				if j > 0 {
					in.baseline = append(in.baseline, float64(now()-t0)/float64(time.Millisecond))
				}
			}
		}
	}
	ops := timedLoop(n, limit, in.k, func() error { in.op(); return nil }, between)
	for j, v := range in.yg.Data {
		if v != in.want[j] {
			return ops, fmt.Errorf("general product did not repeat bitwise at element %d", j)
		}
	}
	return ops, nil
}

func (in *spmvInstance) layers(ops []opRec, out metrics) {
	var gen, sym sample
	var busy, wall time.Duration
	for _, s := range in.k.t.spans {
		ms := float64(s.dur()) / float64(time.Millisecond)
		switch s.name {
		case spanGeneralMul:
			gen = append(gen, ms)
			busy += s.dur()
		case spanSymMul:
			sym = append(sym, ms)
			busy += s.dur()
		}
	}
	for _, o := range ops {
		wall += o.end - o.start
	}
	m := in.m
	g50, s50 := gen.median(), sym.median()
	out.set("bcrs.general_p50_ms", g50)
	out.set("bcrs.sym_p50_ms", s50)
	out.set("bcrs.general_p90_ms", gen.percentile(90))
	out.set("bcrs.sym_p90_ms", sym.percentile(90))
	// bytes / (ms * 1e6) is GB/s; flops / (ms * 1e6) is Gflop/s.
	ggbs := ratio(float64(in.a.TrafficBytes(m)), g50*1e6)
	out.set("bcrs.general_gbs_computed", ggbs)
	out.set("bcrs.sym_gbs_computed", ratio(float64(in.s.TrafficBytes(m)), s50*1e6))
	out.set("bcrs.general_gflops", ratio(float64(in.a.FlopCount(m)), g50*1e6))
	out.set("bcrs.sym_gflops", ratio(float64(in.s.FlopCount(m)), s50*1e6))
	out.set("bcrs.bytes_computed_per_op", float64(in.a.TrafficBytes(m)+in.s.TrafficBytes(m)))
	out.set("bcrs.flops_per_op", float64(in.a.FlopCount(m)+in.s.FlopCount(m)))
	out.set("bcrs.sym_speedup", ratio(g50, s50))
	out.set("bcrs.busy_frac", ratio(busy.Seconds(), wall.Seconds()))
	out.set(fmt.Sprintf("bcrs.mul_count_m%d", m), float64(len(gen)+len(sym)))
	out.set(fmt.Sprintf("bcrs.mul_p50_ms_m%d", m), g50)

	rm := 1.0
	if m > 1 {
		rm = ratio(g50, in.baseline.median())
	}
	out.set("bcrs.r_m", rm)

	// The machine the Section-IV model is scored on is measured here,
	// in the traced run, not taken from pinnedMachine.
	mc := model.Machine{B: perf.MeasureBandwidth(perf.DefaultTriadN, 3), F: perf.MeasureKernelFlops(nil)}
	g := model.GSPMV{Machine: mc, Shape: model.Shape{NB: in.a.NB(), NNZB: in.a.NNZB()}, K: model.DefaultK}
	out.set("perf.stream_gbs", mc.B/1e9)
	out.set("perf.kernel_gflops", mc.F/1e9)
	out.set("bcrs.stream_frac", ratio(ggbs, mc.B/1e9))
	out.set("model.r_pred", g.RelativeTime(m))
	out.set("model.r_rel_err", ratio(g.RelativeTime(m)-rm, rm))
}
