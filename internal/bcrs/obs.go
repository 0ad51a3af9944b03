package bcrs

import (
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Kernel observability: every multiply reports calls, wall seconds,
// flops, traffic bytes, and block rows into obs.Default, labeled by
// the vector count m. From these counters the achieved GB/s and the
// empirical relative time r(m) = (secs(m)/calls(m)) / (secs(1)/calls(1))
// are derivable at runtime (see perf.KernelObsReport) — the Table II
// and Figure 2 quantities, measured on the actual production multiply
// stream instead of a synthetic sweep.
//
// Handles are cached per m in a sync.Map so the hot path costs one
// map load, two clock reads, and five atomic adds — well under 1% of
// any multiply large enough to be worth measuring.

// KernelMetricPrefix is the family prefix of the per-m general-kernel
// counters: <prefix>_{calls_total,seconds_total,flops_total,
// bytes_total,block_rows_total}{m="<m>"}.
const KernelMetricPrefix = "bcrs_mul"

// SymKernelMetricPrefix is the family prefix of the symmetric-kernel
// counters. Symmetric multiplies get their own families — not a label
// on the general ones — so symmetric and general traffic stay
// separable in /metrics and BENCH snapshots, and so reports keyed by
// m (perf.KernelObsReport) never merge the two streams.
const SymKernelMetricPrefix = "bcrs_sym_mul"

type kernelCounters struct {
	calls     *obs.Counter
	flops     *obs.Counter
	bytes     *obs.Counter
	blockRows *obs.Counter
	seconds   *obs.FloatCounter
}

type kernelKey struct {
	prefix string
	m      int
}

var kernelByM sync.Map // kernelKey -> *kernelCounters

func kernelCountersFor(prefix string, m int) *kernelCounters {
	key := kernelKey{prefix, m}
	if v, ok := kernelByM.Load(key); ok {
		return v.(*kernelCounters)
	}
	ms := strconv.Itoa(m)
	kc := &kernelCounters{
		calls:     obs.Default.Counter(obs.Label(prefix+"_calls_total", "m", ms)),
		flops:     obs.Default.Counter(obs.Label(prefix+"_flops_total", "m", ms)),
		bytes:     obs.Default.Counter(obs.Label(prefix+"_bytes_total", "m", ms)),
		blockRows: obs.Default.Counter(obs.Label(prefix+"_block_rows_total", "m", ms)),
		seconds:   obs.Default.FloatCounter(obs.Label(prefix+"_seconds_total", "m", ms)),
	}
	v, _ := kernelByM.LoadOrStore(key, kc)
	return v.(*kernelCounters)
}

// TrafficBytes returns the minimum memory traffic of one multiply
// with m vectors under the paper's Section IV-B1 accounting at
// k(m) = 1: the matrix once (72 B per block, 4 B per column index,
// 4 B per row-pointer entry), X read once, and Y written with the
// write-allocate read (2x), matching the perf package's footnote-1
// convention. Actual traffic exceeds this when X overflows cache;
// dividing by measured seconds therefore gives a lower bound on the
// achieved bandwidth.
func (a *Matrix) TrafficBytes(m int) int64 {
	matrix := int64(a.NNZB())*(BlockSize*8+4) + int64(len(a.rowPtr))*4
	x := int64(a.ncb) * BlockDim * int64(m) * 8
	y := int64(a.nb) * BlockDim * int64(m) * 8 * 2
	return matrix + x + y
}

// recordMul accounts one completed multiply with m vectors.
func (a *Matrix) recordMul(m int, secs float64) {
	kc := kernelCountersFor(KernelMetricPrefix, m)
	kc.calls.Inc()
	kc.seconds.Add(secs)
	kc.flops.Add(a.FlopCount(m))
	kc.bytes.Add(a.TrafficBytes(m))
	kc.blockRows.Add(int64(a.nb))
}

// TrafficBytes returns the minimum memory traffic of one multiply
// with m vectors under the Section IV-B1 accounting: the half-stored
// matrix once, X read once, Y written with the write-allocate read
// (2x). Partial-buffer traffic is excluded, matching the footnote-1
// minimum-traffic convention; for banded matrices it is a small
// fraction of the savings.
func (s *SymMatrix) TrafficBytes(m int) int64 {
	matrix := int64(s.NNZB())*(BlockSize*8+4) + int64(len(s.rowPtr))*4
	x := int64(s.nb) * BlockDim * int64(m) * 8
	y := int64(s.nb) * BlockDim * int64(m) * 8 * 2
	return matrix + x + y
}

// recordMul accounts one completed symmetric multiply with m vectors.
func (s *SymMatrix) recordMul(m int, secs float64) {
	kc := kernelCountersFor(SymKernelMetricPrefix, m)
	kc.calls.Inc()
	kc.seconds.Add(secs)
	kc.flops.Add(s.FlopCount(m))
	kc.bytes.Add(s.TrafficBytes(m))
	kc.blockRows.Add(int64(s.nb))
}
