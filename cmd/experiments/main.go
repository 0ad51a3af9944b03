// Command experiments regenerates the paper's tables and figures, and
// is the only producer of one: `make experiments` rewrites the
// committed experiments_output.txt with `-run all`.
//
// Usage:
//
//	experiments -list
//	experiments -run table5
//	experiments -run all -large 30000 -steps 24
//
// Each experiment prints a paper-style table; EXPERIMENTS.md records
// how the output maps onto the published numbers.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		run       = flag.String("run", "all", "experiment id (see -list) or 'all'")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		small     = flag.Int("small", 0, "small system size (default 300; paper 3,000)")
		medium    = flag.Int("medium", 0, "medium system size (default 1000; paper 30,000)")
		large     = flag.Int("large", 0, "large system size (default 3000; paper 300,000)")
		matrixNB  = flag.Int("matrix-nb", 0, "block rows for kernel matrices (default 20000; paper 300k-395k)")
		clusterNB = flag.Int("cluster-nb", 0, "block rows for the multi-node experiments (default 100000; paper 300k)")
		steps     = flag.Int("steps", 0, "time-step horizon for convergence experiments (default 24)")
		seed      = flag.Uint64("seed", 0, "random seed")
		threads   = flag.Int("threads", 0, "kernel threads (default 1)")
		format    = flag.String("format", "table", "output format: table or csv")
	)
	flag.Parse()
	if *format != "table" && *format != "csv" {
		fmt.Fprintln(os.Stderr, "experiments: -format must be table or csv")
		os.Exit(1)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-14s %s\n", id, experiments.Describe(id))
		}
		return
	}

	cfg := experiments.Config{
		SizeSmall: *small, SizeMedium: *medium, SizeLarge: *large,
		MatrixNB: *matrixNB, ClusterNB: *clusterNB,
		Steps: *steps, Seed: *seed, Threads: *threads,
	}

	if *run == "all" {
		if err := experiments.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	tabs, err := experiments.Run(*run, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	for _, t := range tabs {
		if *format == "csv" {
			if err := t.FprintCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			continue
		}
		t.Fprint(os.Stdout)
	}
}
