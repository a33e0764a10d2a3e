// Command experiments regenerates every data figure in the paper — the
// Section-3 measurement figures from a synthetic crawl and the Section-4/5
// evaluation figures from the cdn simulation — plus the design ablations.
// Its output is the source for EXPERIMENTS.md.
//
// Figures are independent simulation grids, so they run through a bounded
// worker pool (-parallel, default GOMAXPROCS). Every simulation is
// deterministic from its explicit seed and results are emitted in
// submission order, so stdout is byte-identical at any parallelism.
//
// Runs are interruptible: SIGINT/SIGTERM cancels in-flight simulations
// promptly, and the figures already emitted are a prefix of an
// uninterrupted run's stdout.
//
// Usage:
//
//	experiments                      # everything at default (paper-like) scale
//	experiments -scale small         # fast pass
//	experiments -only fig22,fig23    # a comma-separated figure subset
//	experiments -parallel 1          # serial run (identical output)
//	experiments -metrics             # per-figure wall/event/alloc summary on stderr
//	experiments -audit               # run every simulation under the invariant auditor
//	experiments -timeout 10m         # per-figure deadline
//	experiments -import crawl.jsonl  # replay an imported deployment as the import-replay figure
//	experiments -cpuprofile cpu.out  # pprof CPU profile of the whole run
//	experiments -memprofile mem.out  # pprof heap profile (post-GC, at exit)
//	experiments -trace trace.out     # runtime execution trace
//
// Plan mode replaces the figure sweep with a declarative scenario matrix:
// each plan file pins a workload, population, fault scenario and system set,
// plus SLO assertions over the run's results. See the plans/ catalog.
//
//	experiments -plan plans/10-baseline.json      # one plan
//	experiments -plan-catalog plans               # every plan in the directory
//	experiments -plan-catalog plans -junit r.xml  # plus a junit-style report
//
// Profiling never changes results: simulations are deterministic from
// their seeds, so output stays byte-identical with collectors attached.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/figures"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/profiling"
	"cdnconsistency/internal/runner"
	"cdnconsistency/internal/traceimport"
)

func main() {
	// First signal: cancel the sweep — in-flight simulations abort at their
	// next event-loop tick and run returns the cancellation. Second signal:
	// the default handler kills the process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// syncWriter serializes the sweep's stderr writes. They all come from the
// ordered-emit path today; the lock keeps a report from a worker goroutine
// from interleaving with them.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		scaleName = fs.String("scale", "paper", "scale: paper or small")
		only      = fs.String("only", "", "comma-separated figure ids to run (e.g. fig03,fig22,ablation-queue)")
		format    = fs.String("format", "text", "output format: text or markdown")
		parallel  = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation jobs (1 = serial; output is identical at any value)")
		metrics   = fs.Bool("metrics", false, "print a per-figure timing/event/allocation summary to stderr")
		faults    = fs.String("faults", "", "comma-separated fault scenarios to run as fault-<name> figures ("+strings.Join(fault.ScenarioNames(), ", ")+"; \"all\" for every one)")
		fedFlag   = fs.String("federation", "", "multi-CDN federation for the federation-* figures: a provider count or @file.json spec (default: 3 real-city providers; serial-only)")
		audit     = fs.Bool("audit", false, "run every simulation under the runtime invariant auditor (fails fast on a violated conservation property; metrics are unchanged)")
		auditCad  = fs.Duration("audit-cadence", 0, "auditor sweep cadence in simulated time (0 = auditor default; requires -audit)")
		timeout   = fs.Duration("timeout", 0, "per-figure deadline; a figure exceeding it aborts the sweep (0 = none)")
		cpuprof   = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memprof   = fs.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
		traceOut  = fs.String("trace", "", "write a runtime execution trace to this file")
		importArg = fs.String("import", "", "replay an imported deployment — a crawl trace (JSONL or #cdnlog access log) or a pre-inferred bundle JSON — as the single import-replay figure; figure-selection flags it replaces are rejected")
		planFile  = fs.String("plan", "", "run one scenario plan file (JSON) as a system x seed matrix with SLO assertions, instead of figures")
		planDir   = fs.String("plan-catalog", "", "run every *.json scenario plan in this directory (sorted by filename), instead of figures")
		junitOut  = fs.String("junit", "", "write a junit-style XML report of plan cells to this file (plan mode only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	profStop, profErr := profiling.Start(profiling.Config{CPUProfile: *cpuprof, MemProfile: *memprof, Trace: *traceOut})
	if profErr != nil {
		return profErr
	}
	defer func() {
		if perr := profStop(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1, got %d", *parallel)
	}
	switch *format {
	case "text", "markdown":
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0")
	}

	sw := sweep{
		parallel: *parallel,
		timeout:  *timeout,
		metrics:  *metrics,
		errw:     &syncWriter{w: stderr},
	}

	// Plan mode: -plan/-plan-catalog replaces the figure sweep with a scenario
	// matrix; figure-shaping flags are rejected rather than silently ignored.
	if *planFile != "" || *planDir != "" {
		if *planFile != "" && *planDir != "" {
			return fmt.Errorf("-plan and -plan-catalog are mutually exclusive")
		}
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale", "only", "format", "faults", "audit", "audit-cadence", "federation", "import":
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			sort.Strings(bad)
			return fmt.Errorf("%s: figure-sweep flags cannot be combined with -plan/-plan-catalog", strings.Join(bad, ", "))
		}
		return runPlans(ctx, *planFile, *planDir, *junitOut, sw, stdout)
	}
	if *junitOut != "" {
		return fmt.Errorf("-junit requires -plan or -plan-catalog")
	}

	var (
		traceScale figures.TraceScale
		simScale   figures.SimScale
	)
	switch *scaleName {
	case "paper":
		traceScale = figures.DefaultTraceScale()
		simScale = figures.DefaultSimScale()
	case "small":
		traceScale = figures.SmallTraceScale()
		simScale = figures.SmallSimScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	// Figures fan their own simulation grids through the same budget, and
	// share one run table: a run two figures ask for is simulated once.
	simScale.Parallel = *parallel
	simScale.Runs = figures.NewRunTable()
	simScale.Scenario.Audit = *audit
	simScale.Scenario.AuditCadence = plan.Duration(*auditCad)
	// Every figure cell starts from this scenario: a bad flag fails here,
	// before the first figure runs.
	if err := simScale.Scenario.Validate(core.Systems()...); err != nil {
		return fmt.Errorf("-audit/-audit-cadence: %w", err)
	}
	fedSpec := federation.DefaultSpec(3)
	if *fedFlag != "" {
		var err error
		if fedSpec, err = federation.ParseArg(*fedFlag); err != nil {
			return err
		}
	}

	// Import mode: the sweep collapses to the single import-replay figure,
	// so figure-selection flags are rejected rather than silently ignored.
	var importBundle *traceimport.Bundle
	if *importArg != "" {
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "only", "faults", "federation":
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			sort.Strings(bad)
			return fmt.Errorf("%s: figure-selection flags cannot be combined with -import", strings.Join(bad, ", "))
		}
		var err error
		if importBundle, _, err = traceimport.LoadAny(*importArg); err != nil {
			return err
		}
	}

	type job struct {
		id  string
		run func(ctx context.Context) (*figures.Table, error)
	}
	// The trace environment is shared by all Section-3 figures and built
	// once, by whichever trace job gets there first.
	traceEnv := sync.OnceValues(func() (*figures.TraceEnv, error) {
		return figures.NewTraceEnv(traceScale)
	})
	traceJob := func(id string, fn func(*figures.TraceEnv) (*figures.Table, error)) job {
		return job{id: id, run: func(context.Context) (*figures.Table, error) {
			e, err := traceEnv()
			if err != nil {
				return nil, err
			}
			return fn(e)
		}}
	}
	simJob := func(id string, fn func(figures.SimScale) (*figures.Table, error)) job {
		return job{id: id, run: func(ctx context.Context) (*figures.Table, error) {
			s := simScale
			s.Ctx = ctx
			return fn(s)
		}}
	}

	jobs := []job{
		traceJob("fig03", figures.Fig03),
		traceJob("fig04", figures.Fig04),
		traceJob("fig05", figures.Fig05),
		traceJob("fig06", figures.Fig06),
		traceJob("fig07", figures.Fig07),
		traceJob("fig08", figures.Fig08),
		traceJob("fig09", figures.Fig09),
		traceJob("fig10", figures.Fig10),
		traceJob("fig11", figures.Fig11),
		traceJob("fig12", figures.Fig12),
		traceJob("tree-verdict", figures.TreeVerdictTable),
		simJob("fig14", figures.Fig14),
		simJob("fig15", figures.Fig15),
		simJob("fig16", figures.Fig16),
		simJob("fig17", figures.Fig17),
		simJob("fig18", figures.Fig18),
		simJob("fig19", figures.Fig19),
		simJob("fig20", figures.Fig20),
		simJob("fig22", figures.Fig22),
		simJob("fig23", figures.Fig23),
		simJob("fig24", figures.Fig24),
		simJob("ext-broadcast", figures.ExtBroadcast),
		simJob("ext-tree-failure", figures.ExtTreeFailure),
		simJob("ext-lease", figures.ExtLease),
		simJob("ext-dns", figures.ExtDNS),
		simJob("ext-regime", figures.ExtRegime),
		simJob("ext-catalog", figures.ExtCatalog),
		simJob("ext-faults", figures.ExtFaults),
		simJob("ext-failover", figures.ExtFailover),
		simJob("federation-storm", func(s figures.SimScale) (*figures.Table, error) {
			return figures.FederationStorm(s, fedSpec)
		}),
		simJob("federation-flap", func(s figures.SimScale) (*figures.Table, error) {
			return figures.FederationFlap(s, fedSpec)
		}),
		simJob("ext-scale", figures.ExtScale),
		simJob("ablation-queue", figures.AblationQueue),
		simJob("ablation-proximity", figures.AblationProximity),
		simJob("ablation-adaptive", figures.AblationAdaptive),
		simJob("ablation-hilbert", figures.AblationHilbert),
		simJob("ablation-depth", figures.AblationDepth),
	}
	if importBundle != nil {
		jobs = []job{simJob("import-replay", func(s figures.SimScale) (*figures.Table, error) {
			return figures.ImportReplay(s, *importArg, importBundle)
		})}
	}
	if *faults != "" {
		names := strings.Split(*faults, ",")
		if *faults == "all" {
			names = fault.ScenarioNames()
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := fault.Scenario(name); err != nil {
				return err
			}
			n := name
			jobs = append(jobs, simJob("fault-"+n, func(s figures.SimScale) (*figures.Table, error) {
				return figures.FaultScenario(s, n)
			}))
		}
	}

	// -only is a comma-separated id subset. Selection preserves the canonical
	// figure order above, so stdout ordering never depends on how the flag
	// was spelled.
	selected := jobs
	if *only != "" {
		want := make(map[string]bool)
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				want[id] = true
			}
		}
		selected = nil
		for _, j := range jobs {
			if want[j.id] {
				selected = append(selected, j)
				delete(want, j.id)
			}
		}
		if len(want) > 0 {
			// Name every unknown id (sorted, so the error is deterministic)
			// and the full valid set, so a typo is a one-round-trip fix.
			unknown := make([]string, 0, len(want))
			for id := range want {
				unknown = append(unknown, strconv.Quote(id))
			}
			sort.Strings(unknown)
			valid := make([]string, len(jobs))
			for i, j := range jobs {
				valid[i] = j.id
			}
			return fmt.Errorf("-only: no figure matches %s; valid ids: %s",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("no figure matches %q", *only)
	}

	render := func(t *figures.Table) string {
		if *format == "markdown" {
			return t.Markdown()
		}
		return t.String()
	}

	sjobs := make([]sweepJob[string], len(selected))
	for i, j := range selected {
		j := j
		sjobs[i] = sweepJob[string]{id: j.id, run: func(ctx context.Context, m *runner.Metrics) (string, error) {
			tab, err := j.run(ctx)
			if err != nil {
				return "", err
			}
			m.AddEvents(tab.SimEvents)
			return render(tab), nil
		}}
	}
	return runSweep(ctx, sw, sjobs, func(out string) error {
		fmt.Fprintln(stdout, out)
		return nil
	})
}

// printMetrics writes the per-job summary table. It goes to stderr so that
// stdout stays byte-identical across -parallel values even with -metrics.
func printMetrics[T any](w io.Writer, results []runner.Result[T], workers int) {
	fmt.Fprintf(w, "experiments: per-job metrics (%d workers; alloc is approximate under parallelism)\n", workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\twall\tsim_events\talloc_MB")
	var (
		totalWall   time.Duration
		totalEvents uint64
		totalAlloc  uint64
	)
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%v\t%d\t%.1f\n",
			r.ID, r.Metrics.Wall.Round(time.Millisecond), r.Metrics.Events,
			float64(r.Metrics.AllocBytes)/(1<<20))
		totalWall += r.Metrics.Wall
		totalEvents += r.Metrics.Events
		totalAlloc += r.Metrics.AllocBytes
	}
	fmt.Fprintf(tw, "total (cpu)\t%v\t%d\t%.1f\n",
		totalWall.Round(time.Millisecond), totalEvents, float64(totalAlloc)/(1<<20))
	tw.Flush() //nolint:errcheck // best-effort diagnostics
}
