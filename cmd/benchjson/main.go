// Command benchjson converts `go test -bench` output into the repo's
// machine-readable BENCH_<n>.json format and compares two such files for
// performance regressions.
//
// Parse mode (default) reads benchmark text on stdin and writes JSON:
//
//	go test -run '^$' -bench . -benchmem -count 3 . | benchjson -out BENCH_1.json
//
// With -count > 1 the per-benchmark numbers are medians across runs,
// which makes ns/op robust against scheduler noise; allocs/op and B/op
// are deterministic for this repo's benchmarks and identical across runs.
//
// Compare mode checks a candidate file against a committed baseline:
//
//	benchjson -compare BENCH_0.json,BENCH_1.json -max-regress 0.20 -guard Fig19,Fig20
//
// It exits non-zero if any guarded benchmark regressed by more than the
// threshold in ns/op or allocs/op (missing guarded benchmarks also fail).
// Without -guard every benchmark present in both files is checked.
//
// Emit mode re-prints a JSON file in standard Go benchmark format so
// external tools (e.g. benchstat) can consume it:
//
//	benchjson -gobench BENCH_0.json > old.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one aggregated benchmark result.
type Benchmark struct {
	Name        string  `json:"name"`          // without the "Benchmark" prefix
	Runs        int     `json:"runs"`          // -count: how many lines were aggregated
	Iterations  int64   `json:"iterations"`    // b.N of the median run
	NsPerOp     float64 `json:"ns_per_op"`     // median across runs
	BytesPerOp  float64 `json:"bytes_per_op"`  // median across runs (-benchmem)
	AllocsPerOp float64 `json:"allocs_per_op"` // median across runs (-benchmem)
	// Extra holds the benchmark's custom b.ReportMetric units (the figure
	// benchmarks report a headline shape metric, e.g. "mean_s"), medians
	// across runs.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// File is the BENCH_<n>.json schema.
type File struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		out        = fs.String("out", "", "parse mode: write JSON to this file instead of stdout")
		note       = fs.String("note", "", "parse mode: free-form note recorded in the JSON")
		compare    = fs.String("compare", "", "compare mode: baseline.json,candidate.json")
		maxRegress = fs.Float64("max-regress", 0.20, "compare mode: maximum tolerated fractional regression (0.20 = +20%)")
		guard      = fs.String("guard", "", "compare mode: comma-separated benchmark names that must be present and within threshold (default: all common)")
		gobench    = fs.String("gobench", "", "emit mode: re-print this JSON file in Go benchmark text format")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *compare != "" && *gobench != "":
		return fmt.Errorf("-compare and -gobench are mutually exclusive")
	case *compare != "":
		parts := strings.Split(*compare, ",")
		if len(parts) != 2 {
			return fmt.Errorf("-compare wants baseline.json,candidate.json, got %q", *compare)
		}
		// NaN fails every comparison, so a NaN budget would pass any
		// regression; an infinite or negative one is no budget either.
		if math.IsNaN(*maxRegress) || math.IsInf(*maxRegress, 0) || *maxRegress < 0 {
			return fmt.Errorf("-max-regress wants a finite fraction >= 0, got %v", *maxRegress)
		}
		return compareFiles(stdout, parts[0], parts[1], *maxRegress, *guard)
	case *gobench != "":
		return emitGobench(stdout, *gobench)
	default:
		return parse(stdin, stdout, *out, *note)
	}
}

// cpuSuffix strips the GOMAXPROCS suffix go test appends to benchmark
// names ("BenchmarkFig19-8" -> "Fig19").
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine decodes one `go test -bench` result line. The format is
// "BenchmarkName[-P]  N  value unit  value unit ...", where -benchmem and
// b.ReportMetric contribute extra value/unit pairs in any order.
func parseBenchLine(line string) (name string, iters int64, metrics map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, nil, false
	}
	name = cpuSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
	if name == "" {
		return "", 0, nil, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, nil, false
	}
	metrics = make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, nil, false
		}
		metrics[fields[i+1]] = v
	}
	if _, hasNs := metrics["ns/op"]; !hasNs {
		return "", 0, nil, false
	}
	return name, iters, metrics, true
}

// parse aggregates stdin benchmark lines into a File, taking medians
// across repeated -count runs of the same benchmark.
func parse(stdin io.Reader, stdout io.Writer, outPath, note string) error {
	type sample struct {
		iters   int64
		metrics map[string]float64
	}
	var (
		f       File
		order   []string
		samples = make(map[string][]sample)
	)
	f.Note = note
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			if pkg := strings.TrimPrefix(line, "pkg: "); f.Pkg == "" {
				f.Pkg = pkg
			} else if f.Pkg != pkg {
				f.Pkg = "(multiple)"
			}
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		name, iters, metrics, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], sample{iters: iters, metrics: metrics})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(order) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	median := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		sort.Float64s(xs)
		n := len(xs)
		if n%2 == 1 {
			return xs[n/2]
		}
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	for _, name := range order {
		ss := samples[name]
		units := make(map[string][]float64)
		for _, s := range ss {
			for unit, v := range s.metrics {
				units[unit] = append(units[unit], v)
			}
		}
		b := Benchmark{
			Name:        name,
			Runs:        len(ss),
			Iterations:  ss[len(ss)/2].iters,
			NsPerOp:     median(units["ns/op"]),
			BytesPerOp:  median(units["B/op"]),
			AllocsPerOp: median(units["allocs/op"]),
		}
		delete(units, "ns/op")
		delete(units, "B/op")
		delete(units, "allocs/op")
		for unit, vs := range units {
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = median(vs)
		}
		f.Benchmarks = append(f.Benchmarks, b)
	}

	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles reports per-benchmark deltas and fails if any checked
// benchmark regressed past the threshold in ns/op or allocs/op.
func compareFiles(stdout io.Writer, basePath, candPath string, maxRegress float64, guard string) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := load(candPath)
	if err != nil {
		return err
	}
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	candBy := make(map[string]Benchmark, len(cand.Benchmarks))
	for _, b := range cand.Benchmarks {
		candBy[b.Name] = b
	}

	var names []string
	if guard != "" {
		for _, n := range strings.Split(guard, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	} else {
		for _, b := range base.Benchmarks {
			if _, ok := candBy[b.Name]; ok {
				names = append(names, b.Name)
			}
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no benchmarks to compare between %s and %s", basePath, candPath)
	}

	delta := func(old, new float64) float64 {
		if old == 0 {
			if new == 0 {
				return 0
			}
			return 1 // regression from zero is always out of budget
		}
		return (new - old) / old
	}

	var failures []string
	fmt.Fprintf(stdout, "%-28s %14s %14s %8s   %14s %14s %8s\n",
		"benchmark", "ns/op(old)", "ns/op(new)", "Δns", "allocs(old)", "allocs(new)", "Δallocs")
	for _, name := range names {
		b, okB := baseBy[name]
		c, okC := candBy[name]
		if !okB || !okC {
			failures = append(failures, fmt.Sprintf("%s: missing from %s", name, map[bool]string{false: basePath, true: candPath}[okB]))
			continue
		}
		dns := delta(b.NsPerOp, c.NsPerOp)
		dal := delta(b.AllocsPerOp, c.AllocsPerOp)
		fmt.Fprintf(stdout, "%-28s %14.0f %14.0f %+7.1f%%   %14.0f %14.0f %+7.1f%%\n",
			name, b.NsPerOp, c.NsPerOp, dns*100, b.AllocsPerOp, c.AllocsPerOp, dal*100)
		if dns > maxRegress {
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.1f%% (budget %.0f%%)", name, dns*100, maxRegress*100))
		}
		if dal > maxRegress {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %.1f%% (budget %.0f%%)", name, dal*100, maxRegress*100))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance regression:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(stdout, "OK: %d benchmarks within %.0f%% of %s\n", len(names), maxRegress*100, basePath)
	return nil
}

// emitGobench re-prints a JSON file as standard Go benchmark text so
// benchstat and similar tools can consume committed baselines.
func emitGobench(stdout io.Writer, path string) error {
	f, err := load(path)
	if err != nil {
		return err
	}
	if f.Goos != "" {
		fmt.Fprintf(stdout, "goos: %s\n", f.Goos)
	}
	if f.Goarch != "" {
		fmt.Fprintf(stdout, "goarch: %s\n", f.Goarch)
	}
	if f.Pkg != "" {
		fmt.Fprintf(stdout, "pkg: %s\n", f.Pkg)
	}
	if f.CPU != "" {
		fmt.Fprintf(stdout, "cpu: %s\n", f.CPU)
	}
	for _, b := range f.Benchmarks {
		fmt.Fprintf(stdout, "Benchmark%s \t%d\t%.0f ns/op\t%.0f B/op\t%.0f allocs/op\n",
			b.Name, b.Iterations, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}
	return nil
}
