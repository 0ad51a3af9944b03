// Command bench is the repository's benchmark: six workloads over the
// SD stepper, the GSPMV kernels and the batching solve server, three
// end-to-end metrics per workload, and a traced run that attributes
// the time to layers. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory explains them.
//
//	bash bench/run.sh --workload sd_mrhs --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload sd_mrhs --seed 1 --seconds 10 --repeat 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "every generated input derives from this seed")
		seconds = flag.Float64("seconds", 10, "how long to measure: the number of timed ops is this times the workload's fixed rate")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "run the workload this many times with one seed, check that the runs computed the same, and report the spread of every end-to-end metric")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := runRepeat(*name, *seed, *seconds, *repeat, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	rep, err := runOnce(w, *seed, *seconds, *trace == 1, fullSizes, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defs := endToEndMetrics
	if *trace == 1 {
		defs = perLayerMetrics
	}
	printReport(os.Stdout, defs, rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printReport prints every metric by name with its unit, then the
// result line.
func printReport(out io.Writer, defs []metricDef, rep report) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a report holds only numbers, strings and bools
	}
	fmt.Fprintf(out, "%s\n", line)
}

// runRepeat runs this program n times on one workload and seed. The
// runs must agree on what they computed (op count and digests), or the
// repeat fails. For every end-to-end metric it prints the values, the
// quartiles and the spread (quartile distance over median) and the
// largest pairwise difference beside the metric's bound, which is how
// the benchmark's steadiness is judged.
func runRepeat(name string, seed uint64, seconds float64, n int, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	values := map[string]sample{}
	var computed string
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		rep, digests, err := lastReport(stdout)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		if !rep.Correct || rep.Failed > 0 {
			return fmt.Errorf("run %d: correct=%v failed=%d", i+1, rep.Correct, rep.Failed)
		}
		this := fmt.Sprintf("%d ops, %s", rep.Attempted, digests)
		if i == 0 {
			computed = this
		} else if this != computed {
			return fmt.Errorf("run %d computed %q, run 1 computed %q", i+1, this, computed)
		}
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
		}
	}
	fmt.Fprintf(out, "%s, %d runs of %g s, seed %d, each %s\n", name, n, seconds, seed, computed)
	for _, d := range endToEndMetrics {
		v := values[d.name]
		fmt.Fprintf(out, "%-10s %-4s values %.5g\n", d.name, d.unit, []float64(v))
		if len(v) < 2 {
			continue
		}
		q1, q2, q3 := v.quartiles()
		fmt.Fprintf(out, "%-10s q1 %.5g median %.5g q3 %.5g spread %.4f max-pairwise %.4f bound %g\n",
			"", q1, q2, q3, v.spread(), v.maxPairwiseRel(), bounds[d.name])
	}
	return nil
}

// lastReport parses the last line a run printed, and returns the
// run's "digest" line beside it.
func lastReport(stdout []byte) (rep report, digests string, err error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
		if strings.HasPrefix(sc.Text(), "digest ") {
			digests = sc.Text()
		}
	}
	if err := json.Unmarshal(last, &rep); err != nil {
		return rep, digests, fmt.Errorf("last line is not a result: %w", err)
	}
	return rep, digests, nil
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory.
func loadBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
