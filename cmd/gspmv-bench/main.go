// Command gspmv-bench measures single-node GSPMV performance:
// achieved relative times r(m) against the Section IV-B model, plus
// achieved GB/s and Gflop/s. With a comma-separated -threads list it
// sweeps the worker-pool size and reports the scaling table — speedup
// and parallel efficiency per (m, threads) pair.
//
// With -symmetric it instead races the half-storage symmetric kernels
// (bcrs.SymMatrix) against the general ones at every (threads, m)
// pair, checks bitwise determinism at each fixed thread count, and
// with -json writes the BENCH_symm.json comparison artifact.
//
// Example:
//
//	gspmv-bench -nb 50000 -bpr 24.9 -m 1,8,16
//	gspmv-bench -threads 1,2,4,8
//	gspmv-bench -symmetric -nowrap -m 1,4,8,16,32 -json BENCH_symm.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/perf"
)

func main() {
	var (
		nb      = flag.Int("nb", 30000, "block rows of the benchmark matrix")
		bpr     = flag.Float64("bpr", 24.9, "target non-zero blocks per block row")
		msFlag  = flag.String("m", "1,2,4,8,12,16,24,32,42", "comma-separated vector counts")
		seed    = flag.Uint64("seed", 1, "matrix seed")
		thrFlag = flag.String("threads", "1", "comma-separated kernel thread counts to sweep")
		k       = flag.Float64("k", 3, "model k(m): extra X accesses per element")
		obsJSON = flag.String("obs-json", "", "write an obs metrics snapshot (JSON, e.g. BENCH_obs.json) to this file after the run")

		symmetric = flag.Bool("symmetric", false, "compare half-storage symmetric GSPMV against the general kernels per (threads, m)")
		band      = flag.Int("band", 0, "matrix bandwidth in block columns (0: nb/16)")
		noWrap    = flag.Bool("nowrap", false, "clip the band at nb instead of wrapping periodically (RCM-like structure)")
		jsonOut   = flag.String("json", "", "symmetric mode: write the comparison artifact (BENCH_symm.json) to this file")
	)
	flag.Parse()

	ms, err := parseInts(*msFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gspmv-bench:", err)
		os.Exit(1)
	}
	ts, err := parseInts(*thrFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gspmv-bench:", err)
		os.Exit(1)
	}

	if *symmetric {
		runSymmetric(symConfig{
			nb: *nb, bpr: *bpr, band: *band, noWrap: *noWrap,
			seed: *seed, k: *k,
			ms: ms, ts: ts, jsonPath: *jsonOut,
		})
		return
	}

	a := bcrs.Random(bcrs.RandomOptions{NB: *nb, BlocksPerRow: *bpr, Bandwidth: *band, NoWrap: *noWrap, Seed: *seed})
	st := a.Stats()
	fmt.Printf("matrix: nb=%d nnzb=%d nnzb/nb=%.1f (%.1f MiB)\n",
		st.NB, st.NNZB, st.BlocksPerRow, float64(st.Bytes)/(1<<20))

	host := perf.CalibratedMachine()
	fmt.Printf("host: B=%.2f GB/s F=%.2f Gflops (B/F=%.2f)\n",
		host.B/1e9, host.F/1e9, host.ByteFlopRatio())

	g := model.GSPMV{Machine: host, Shape: model.Shape{NB: a.NB(), NNZB: a.NNZB()}, K: model.ConstK(*k)}

	// secs[ti][mi] is the per-multiply time at ts[ti] threads, ms[mi]
	// vectors.
	secs := make([][]float64, len(ts))
	for ti, t := range ts {
		a.SetThreads(t)
		parallel.SetThreads(t)
		t1 := perf.TimeMultiply(a, 1, 0)
		secs[ti] = make([]float64, len(ms))
		fmt.Printf("\nthreads=%d\n", t)
		fmt.Printf("%-5s %-12s %-10s %-10s %-8s %-8s\n", "m", "time/mul", "r(m)", "model r", "GB/s", "Gflops")
		for mi, m := range ms {
			r := perf.MeasureRates(a, m, *k)
			secs[ti][mi] = r.Secs
			fmt.Printf("%-5d %-12s %-10.2f %-10.2f %-8.1f %-8.1f\n",
				m, fmt.Sprintf("%.3fms", r.Secs*1e3), r.Secs/t1, g.RelativeTime(m), r.GBps, r.Gflops)
		}
	}
	parallel.SetThreads(1)
	fmt.Printf("\nmodel switch point m_s = %d (bandwidth -> compute bound)\n", g.MSwitch(256))

	// Scaling table: speedup and parallel efficiency of each (m,
	// threads) pair against the first (reference) thread count.
	if len(ts) > 1 {
		ref := ts[0]
		fmt.Printf("\nscaling vs threads=%d (speedup / efficiency):\n", ref)
		fmt.Printf("%-5s", "m")
		for _, t := range ts[1:] {
			fmt.Printf(" %14s", fmt.Sprintf("t=%d", t))
		}
		fmt.Println()
		for mi, m := range ms {
			fmt.Printf("%-5d", m)
			for ti := 1; ti < len(ts); ti++ {
				sp := secs[0][mi] / secs[ti][mi]
				eff := sp * float64(ref) / float64(ts[ti])
				fmt.Printf(" %14s", fmt.Sprintf("%.2fx / %3.0f%%", sp, eff*100))
			}
			fmt.Println()
		}
	}

	if *obsJSON != "" {
		if err := obs.Default.Snapshot().SaveFile(*obsJSON); err != nil {
			fmt.Fprintln(os.Stderr, "gspmv-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("obs snapshot written to %s\n", *obsJSON)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad vector count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
