package perf

import (
	"sort"
	"strconv"

	"repro/internal/bcrs"
	"repro/internal/obs"
)

// KernelObs summarizes the accumulated GSPMV kernel counters for one
// vector count m, in the units of the paper's Table II: achieved
// bandwidth and flop rate from the byte/flop counters the kernels
// maintain, and the empirical relative time r(m) from per-call mean
// seconds against the m = 1 baseline.
type KernelObs struct {
	M      int
	Calls  int64
	Secs   float64 // total kernel seconds at this m
	GBps   float64 // achieved bandwidth, 1e9 bytes/s, traffic-model accounting
	Gflops float64 // achieved flop rate, 1e9 flop/s
	R      float64 // empirical r(m) = mean secs(m) / mean secs(1); 0 if no m=1 data
}

// KernelObsReport extracts the per-m bcrs_mul_* counter families from
// a registry snapshot and derives the Table-II-style achieved rates.
// Entries are sorted by m; ms with no recorded calls are omitted.
func KernelObsReport(reg *obs.Registry) []KernelObs {
	const prefix = bcrs.KernelMetricPrefix
	if reg == nil {
		reg = obs.Default
	}
	snap := reg.Snapshot()

	type kernelAcc struct {
		calls, flops, bytes int64
		secs                float64
	}
	byM := map[int]*kernelAcc{}
	get := func(labels map[string]string) *kernelAcc {
		m, err := strconv.Atoi(labels["m"])
		if err != nil || m < 1 {
			return nil
		}
		a := byM[m]
		if a == nil {
			a = &kernelAcc{}
			byM[m] = a
		}
		return a
	}
	for name, v := range snap.Counters {
		base, labels := obs.SplitName(name)
		switch base {
		case prefix + "_calls_total", prefix + "_flops_total", prefix + "_bytes_total":
		default:
			continue
		}
		a := get(labels)
		if a == nil {
			continue
		}
		switch base {
		case prefix + "_calls_total":
			a.calls = v
		case prefix + "_flops_total":
			a.flops = v
		case prefix + "_bytes_total":
			a.bytes = v
		}
	}
	for name, v := range snap.FloatCounters {
		base, labels := obs.SplitName(name)
		if base != prefix+"_seconds_total" {
			continue
		}
		if a := get(labels); a != nil {
			a.secs = v
		}
	}

	var mean1 float64
	if a := byM[1]; a != nil && a.calls > 0 {
		mean1 = a.secs / float64(a.calls)
	}
	out := make([]KernelObs, 0, len(byM))
	for m, a := range byM {
		if a.calls == 0 || a.secs <= 0 {
			continue
		}
		ko := KernelObs{
			M:      m,
			Calls:  a.calls,
			Secs:   a.secs,
			GBps:   float64(a.bytes) / a.secs / 1e9,
			Gflops: float64(a.flops) / a.secs / 1e9,
		}
		if mean1 > 0 {
			ko.R = (a.secs / float64(a.calls)) / mean1
		}
		out = append(out, ko)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].M < out[j].M })
	return out
}
