// Command perfbench is the repository's benchmark. It drives each layer of
// the program through its public functions on one of three workloads
// (cohort-visits, update-storm, crawl-replay), checks every output, and
// prints the metrics BENCHMARK.json declares: the end-to-end ones with
// --trace 0, the per-layer ones from a traced run with --trace 1. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cohort-visits --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the program reads: the names and units
// of the metrics it must print.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse benchmark spec %s: %w", path, err)
	}
	return &s, nil
}

// host is the record of the machine a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func hostRecord() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long the timed passes run")
	traceFlag := fs.Int("trace", 0, "1 for the traced run that gives the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	h := hostRecord()
	w, err := newWorkload(*name, false, h.GOMAXPROCS)
	if err != nil {
		return err
	}

	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, pins: shippedPins(*name, *seed)}
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU)
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d pinned=%t\n", *name, *seed, *seconds, *traceFlag, o.pins != nil)
	out, err := measure(*name, w, o)
	if err != nil {
		return err
	}
	if o.trace {
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", *name, *seed)
		if err := writeSpans(path, h, out.spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# spans=%s (%d)\n", path, len(out.spans))
	}

	declared := sp.EndToEnd
	if o.trace {
		declared = sp.PerLayer
	}
	res, err := report(stdout, out, declared, !o.trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// report prints the run's digests, failures and metrics for a reader, and
// returns the result line. Every measured metric must be declared; a
// declared per-layer metric the workload does not exercise reads 0, but
// every end-to-end metric must be measured.
func report(stdout io.Writer, out *outcome, declared []metricSpec, endToEnd bool) (*result, error) {
	ops := make([]string, 0, len(out.digests))
	for op := range out.digests {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(stdout, "# digest %s=%s\n", op, out.digests[op])
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "# FAILED %s\n", f)
	}
	fmt.Fprintf(stdout, "# pass walls %.4f s\n", out.walls)
	fmt.Fprintf(stdout, "# reference kernel walls %.4f s\n", out.refs)
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	fmt.Fprintf(stdout, "# attempted=%d failed=%d failed_frac=%g\n", out.attempted, out.failed, out.failedFrac())
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	units := map[string]string{}
	for _, m := range declared {
		units[m.Name] = m.Unit
	}
	for k, v := range out.metrics {
		if _, ok := units[k]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in the benchmark spec", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, v)
		}
	}
	for _, m := range declared {
		v, ok := out.metrics[m.Name]
		if !ok && endToEnd {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", m.Name, v, m.Unit)
	}
	return res, nil
}
