// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment is a named function producing
// one or more printable tables; cmd/experiments runs them by id and is
// the only producer of a paper table or figure (bench/ measures the
// system, experiments_output.txt is this package's committed output).
//
// Absolute numbers differ from the paper's (different hardware, Go
// instead of hand-tuned SIMD C, scaled-down default system sizes);
// what must match is the shape of each result — see EXPERIMENTS.md
// for the paper-vs-measured record.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// FprintCSV renders the table as CSV (header row first, notes as
// trailing comment lines) for plotting pipelines.
func (t *Table) FprintCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Config scales and seeds the experiments.
type Config struct {
	// SizeSmall/SizeMedium/SizeLarge stand in for the paper's 3,000 /
	// 30,000 / 300,000 particle systems. Defaults 300/1000/3000 fit
	// the host; pass the paper's sizes for a full-scale run.
	SizeSmall, SizeMedium, SizeLarge int
	// MatrixNB is the block-row count for the mat1/mat2/mat3 kernels
	// experiments (paper: 300k-395k; default 20000).
	MatrixNB int
	// ClusterNB is the block-row count for the multi-node
	// experiments (default 100000). It must sit much closer to the
	// paper's 300k than MatrixNB: the comm-to-compute ratios of
	// Table III depend on the surface-to-volume ratio of each
	// node's partition, which a small matrix distorts.
	ClusterNB int
	// Steps is the step horizon for convergence experiments
	// (default 24, matching Table V).
	Steps int
	// Seed drives all randomness.
	Seed uint64
	// Threads for kernels.
	Threads int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.SizeSmall == 0 {
		c.SizeSmall = 300
	}
	if c.SizeMedium == 0 {
		c.SizeMedium = 1000
	}
	if c.SizeLarge == 0 {
		c.SizeLarge = 3000
	}
	if c.MatrixNB == 0 {
		c.MatrixNB = 20000
	}
	if c.ClusterNB == 0 {
		c.ClusterNB = 100000
	}
	if c.Steps == 0 {
		c.Steps = 24
	}
	if c.Seed == 0 {
		c.Seed = 20120521 // IPDPS 2012 conference date
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	return c
}

// Runner is one experiment: it returns the tables to print.
type Runner func(cfg Config) ([]*Table, error)

// registry maps experiment ids (table1, fig2a, ...) to runners.
var registry = map[string]Runner{}

// descriptions holds a one-line summary per id.
var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

// IDs returns the registered experiment ids in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) string { return descriptions[id] }

// Run executes one experiment by id.
func Run(id string, cfg Config) ([]*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(cfg.WithDefaults())
}

// RunAll executes every experiment, writing tables to w as they
// complete.
func RunAll(cfg Config, w io.Writer) error {
	for _, id := range IDs() {
		fmt.Fprintf(w, "--- %s: %s ---\n", id, descriptions[id])
		tabs, err := Run(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for _, t := range tabs {
			t.Fprint(w)
		}
	}
	return nil
}

// fmtF formats a float compactly for table cells.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.001:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// fmtInt renders an int cell.
func fmtInt(v int) string { return fmt.Sprintf("%d", v) }
