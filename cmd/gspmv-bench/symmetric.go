package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/rng"
)

// symConfig carries the -symmetric mode's knobs.
type symConfig struct {
	nb     int
	bpr    float64
	band   int
	noWrap bool
	seed   uint64
	k      float64

	ms, ts   []int
	jsonPath string
}

// symBenchOut is the BENCH_symm.json artifact: the general-vs-
// symmetric kernel comparison per (threads, m) pair, the model's
// predictions alongside each measurement, a bitwise-determinism
// verdict per thread count, and the headline acceptance numbers.
type symBenchOut struct {
	NB        int     `json:"nb"`
	BPR       float64 `json:"bpr"`
	Bandwidth int     `json:"bandwidth"`
	NoWrap    bool    `json:"nowrap"`
	NNZB      int     `json:"nnzb"`
	SymNNZB   int     `json:"sym_nnzb"`
	Span      int     `json:"span"`
	MatrixMiB float64 `json:"matrix_mib"`
	SymMiB    float64 `json:"sym_mib"`
	BwGBps    float64 `json:"machine_bw_gbps"`
	FGflops   float64 `json:"machine_gflops"`

	Sweeps []symSweep `json:"sweeps"`
	Best   symBest    `json:"best"`
}

// symSweep is one thread count's comparison sweep.
type symSweep struct {
	Threads int `json:"threads"`
	// Deterministic reports that repeated symmetric multiplies at this
	// fixed thread count were bitwise-identical (NaN-poisoned outputs,
	// so stale values cannot fake a match).
	Deterministic bool            `json:"deterministic"`
	Points        []perf.SymPoint `json:"points"`
}

// symBest holds the acceptance-criterion numbers: the best measured
// symmetric-over-general speedup among points with m >= 8, at equal
// thread count.
type symBest struct {
	Threads int     `json:"threads"`
	M       int     `json:"m"`
	Speedup float64 `json:"speedup"`
}

// runSymmetric is the -symmetric mode: build one banded SPD matrix,
// extract its half storage, and race the two kernel families against
// each other at every requested (threads, m) pair.
func runSymmetric(cfg symConfig) {
	a := bcrs.Random(bcrs.RandomOptions{
		NB: cfg.nb, BlocksPerRow: cfg.bpr, Bandwidth: cfg.band,
		NoWrap: cfg.noWrap, Seed: cfg.seed,
	})
	s, err := bcrs.NewSym(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gspmv-bench:", err)
		os.Exit(1)
	}
	st := a.Stats()
	fmt.Printf("matrix: nb=%d nnzb=%d nnzb/nb=%.1f span=%d (%.1f MiB general, %.1f MiB symmetric)\n",
		st.NB, st.NNZB, st.BlocksPerRow, s.Span(),
		float64(st.Bytes)/(1<<20), float64(s.Bytes())/(1<<20))

	// The model runs on the rates this matrix's kernels can actually
	// achieve (see perf.EffectiveMachine): a single-threaded miss
	// stream sustains well under STREAM bandwidth, and the capacity
	// ramp of k(m) needs the right baseline to predict the large-m
	// collapse.
	host := perf.EffectiveMachine(a, cfg.k)
	fmt.Printf("host (effective): B=%.2f GB/s F=%.2f Gflops (B/F=%.2f)\n",
		host.B/1e9, host.F/1e9, host.ByteFlopRatio())
	g := perf.SymGSPMV(a, s, host, cfg.k)
	fmt.Printf("model: m_s=%d general, m_s=%d symmetric\n", g.MSwitch(256), g.MSwitchSym(256))

	out := symBenchOut{
		NB: cfg.nb, BPR: cfg.bpr, Bandwidth: cfg.band, NoWrap: cfg.noWrap,
		NNZB: a.NNZB(), SymNNZB: s.NNZB(), Span: s.Span(),
		MatrixMiB: float64(st.Bytes) / (1 << 20), SymMiB: float64(s.Bytes()) / (1 << 20),
		BwGBps: host.B / 1e9, FGflops: host.F / 1e9,
	}
	for _, t := range cfg.ts {
		a.SetThreads(t)
		s.SetThreads(t)
		parallel.SetThreads(t)
		pts := perf.MeasureSymSpeedups(a, s, g, cfg.ms)
		det := symDeterministic(s, cfg.ms)
		out.Sweeps = append(out.Sweeps, symSweep{Threads: t, Deterministic: det, Points: pts})

		fmt.Printf("\nthreads=%d (bitwise-deterministic: %v)\n", t, det)
		fmt.Printf("%-5s %-12s %-12s %-9s %-9s %-8s %-8s %-8s\n",
			"m", "general", "symmetric", "speedup", "pred", "r(m)", "r_sym", "pred r_s")
		for _, p := range pts {
			fmt.Printf("%-5d %-12s %-12s %-9s %-9s %-8.2f %-8.2f %-8.2f\n",
				p.M,
				fmt.Sprintf("%.3fms", p.GeneralSecs*1e3),
				fmt.Sprintf("%.3fms", p.SymSecs*1e3),
				fmt.Sprintf("%.2fx", p.Speedup),
				fmt.Sprintf("%.2fx", p.PredictedSpeed),
				p.RGeneral, p.RSym, p.PredictedRSym)
			if p.M >= 8 && p.Speedup > out.Best.Speedup {
				out.Best = symBest{Threads: t, M: p.M, Speedup: p.Speedup}
			}
		}
	}
	parallel.SetThreads(1)

	fmt.Printf("\nbest symmetric speedup at m>=8: %.2fx (threads=%d, m=%d)\n",
		out.Best.Speedup, out.Best.Threads, out.Best.M)

	if cfg.jsonPath != "" {
		f, err := os.Create(cfg.jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gspmv-bench:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "gspmv-bench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "gspmv-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("symmetric comparison written to %s\n", cfg.jsonPath)
	}
}

// symDeterministic multiplies three times at the widest requested m
// into NaN-poisoned outputs and reports whether all runs produced
// bitwise-identical results at the current fixed thread count.
func symDeterministic(s *bcrs.SymMatrix, ms []int) bool {
	m := 1
	for _, v := range ms {
		if v > m {
			m = v
		}
	}
	x := multivec.New(s.N(), m)
	rng.New(42).FillNormal(x.Data)
	ref := multivec.New(s.N(), m)
	for i := range ref.Data {
		ref.Data[i] = math.NaN()
	}
	s.Mul(ref, x)
	y := multivec.New(s.N(), m)
	for rep := 0; rep < 2; rep++ {
		for i := range y.Data {
			y.Data[i] = math.NaN()
		}
		s.Mul(y, x)
		for i := range y.Data {
			if math.Float64bits(y.Data[i]) != math.Float64bits(ref.Data[i]) {
				return false
			}
		}
	}
	return true
}
