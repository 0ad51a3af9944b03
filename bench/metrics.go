package main

import "fmt"

// metricDef names a metric, its unit and which direction is better.
// BENCHMARK.json lists the same names; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

// perLayerMetrics are printed by every traced run; a metric of a layer
// the workload does not reach reads 0. bench/README.md says which
// end-to-end metric each should move, on which workload.
var perLayerMetrics = []metricDef{
	// core: the SD stepper's own phase accounting (Runner.Timings).
	{"core.construct_s_per_step", "s", "lower"},
	{"core.cheb_vectors_s_per_step", "s", "lower"},
	{"core.calc_guesses_s_per_step", "s", "lower"},
	{"core.cheb_single_s_per_step", "s", "lower"},
	{"core.first_solve_s_per_step", "s", "lower"},
	{"core.second_solve_s_per_step", "s", "lower"},
	{"core.self_s_per_step", "s", "lower"},
	{"core.first_iters_per_step", "count", "lower"},
	{"core.second_iters_per_step", "count", "lower"},
	{"core.block_iters_per_chunk", "count", "lower"},
	{"core.guess_rel_err_p50", "fraction", "lower"},
	// hydro, neighbor: matrix assembly.
	{"hydro.build_s_per_step", "s", "lower"},
	{"hydro.builds_per_step", "count", "lower"},
	{"hydro.nnzb", "count", "lower"},
	{"hydro.blocks_per_row", "count", "lower"},
	{"neighbor.rebuilds", "count", "lower"},
	{"neighbor.reuses", "count", "higher"},
	// chebyshev: the Brownian force.
	{"chebyshev.apply_s_per_step", "s", "lower"},
	{"chebyshev.muls_per_step", "count", "lower"},
	// solver: time in the solves that is not inside a multiply.
	{"solver.self_s_per_step", "s", "lower"},
	{"solver.matmuls_per_step", "count", "lower"},
	{"solver.iters_per_req", "count", "lower"},
	{"solver.matmuls_per_dispatch", "count", "lower"},
	{"solver.self_ms_per_dispatch", "ms", "lower"},
	// bcrs: the GSPMV kernels. Bytes are computed from array sizes.
	{"bcrs.general_p50_ms", "ms", "lower"},
	{"bcrs.sym_p50_ms", "ms", "lower"},
	{"bcrs.general_p90_ms", "ms", "lower"},
	{"bcrs.sym_p90_ms", "ms", "lower"},
	{"bcrs.general_gbs_computed", "GB/s", "higher"},
	{"bcrs.sym_gbs_computed", "GB/s", "higher"},
	{"bcrs.general_gflops", "Gflop/s", "higher"},
	{"bcrs.sym_gflops", "Gflop/s", "higher"},
	{"bcrs.bytes_computed_per_op", "bytes", "lower"},
	{"bcrs.flops_per_op", "count", "lower"},
	{"bcrs.sym_speedup", "ratio", "higher"},
	{"bcrs.r_m", "ratio", "lower"},
	{"bcrs.mul_s_per_step", "s", "lower"},
	{"bcrs.mul_count_m1", "count", "lower"},
	{"bcrs.mul_count_m16", "count", "lower"},
	{"bcrs.mul_count_m32", "count", "lower"},
	{"bcrs.mul_p50_ms_m1", "ms", "lower"},
	{"bcrs.mul_p50_ms_m16", "ms", "lower"},
	{"bcrs.mul_p50_ms_m32", "ms", "lower"},
	{"bcrs.busy_frac", "fraction", "higher"},
	// model, perf: the Section-IV model scored against this run.
	{"perf.stream_gbs", "GB/s", "higher"},
	{"perf.kernel_gflops", "Gflop/s", "higher"},
	{"bcrs.stream_frac", "fraction", "higher"},
	{"model.r_pred", "ratio", "lower"},
	{"model.r_rel_err", "fraction", "lower"},
	// serve: the batcher.
	{"serve.queue_wait_p50_ms", "ms", "lower"},
	{"serve.queue_wait_p99_ms", "ms", "lower"},
	{"serve.solve_p50_ms", "ms", "lower"},
	{"serve.self_p50_ms", "ms", "lower"},
	{"serve.latency_p90_ms", "ms", "lower"},
	{"serve.latency_p99_ms", "ms", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.kernel_m_mean", "count", "higher"},
	{"serve.dispatches", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.canceled", "count", "lower"},
	{"serve.gen_lag_p99_ms", "ms", "lower"},
	// The traced run itself.
	{"trace.overhead_frac", "fraction", "lower"},
	{"trace.spans", "count", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func unitOf(name string) (string, bool) {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}

// set records a metric under its declared unit. A name that is not
// declared is a bug in this directory.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf(name)
	if !ok {
		panic(fmt.Sprintf("metric %q is not declared", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// only returns exactly the given metrics, reading 0 where none was
// set.
func (m metrics) only(defs []metricDef) metrics {
	out := metrics{}
	for _, d := range defs {
		out[d.name] = metric{Value: m[d.name].Value, Unit: d.unit}
	}
	return out
}
