// Command cdnsim runs one trace-driven CDN consistency simulation — an
// update method on an update infrastructure — and prints the metrics the
// paper reports: per-server/per-user inconsistency, traffic cost, message
// counts, and user-observed inconsistency.
//
// Usage:
//
//	cdnsim -method TTL -infra Unicast -servers 170 -users 5
//	cdnsim -system HAT                     # one of the paper's named systems
//	cdnsim -system TTL -faults churn -failover
//	cdnsim -faults @scenario.json          # hand-written fault spec
//	cdnsim -system TTL -federation 3 -faults provider-storm -failover
//	cdnsim -federation @providers.json     # hand-written multi-CDN spec
//	cdnsim -system HAT -audit              # run under the invariant auditor
//	cdnsim -system HAT -timeout 2m         # abort if the run exceeds 2 minutes
//	cdnsim -plan plans/10-baseline.json    # run a scenario plan's cells serially
//	cdnsim -system HAT -import crawl.jsonl # replay an imported deployment (trace or bundle)
//	cdnsim -system HAT -cpuprofile cpu.out # pprof CPU profile (also -memprofile, -trace)
//
// SIGINT/SIGTERM cancels the simulation promptly at its next event-loop
// tick; -timeout bounds the run's wall-clock time the same way.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/profiling"
	"cdnconsistency/internal/stats"
	"cdnconsistency/internal/traceimport"
	"cdnconsistency/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdnsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("cdnsim", flag.ContinueOnError)
	// sc collects the scenario flags. A flag left unset leaves its field
	// zero, and the run keeps the scenario default.
	var sc plan.Scenario
	fs.IntVar(&sc.Servers, "servers", 0, fmt.Sprintf("content servers (default %d)", core.DefaultServers))
	users := fs.Int("users", 0, fmt.Sprintf("end-users per server (default %d)", core.DefaultUsersPerServer))
	fs.DurationVar((*time.Duration)(&sc.ServerTTL), "serverttl", 0, fmt.Sprintf("content-server TTL (default %v)", cdn.DefaultServerTTL))
	fs.DurationVar((*time.Duration)(&sc.UserTTL), "userttl", 0, fmt.Sprintf("end-user visit period (default %v)", cdn.DefaultUserTTL))
	fs.Float64Var(&sc.UpdateSizeKB, "updatekb", 0, fmt.Sprintf("update payload size in KB (default %v)", cdn.DefaultUpdateSizeKB))
	fs.IntVar(&sc.Clusters, "clusters", 0, fmt.Sprintf("hybrid cluster count (default %d)", cdn.DefaultClusters))
	fs.BoolVar(&sc.UserSwitch, "switch", false, "users switch servers every visit (Figure 24 scenario)")
	fs.StringVar(&sc.UserModel, "usermodel", cdn.UserModelExplicit, "end-user model: explicit (one cohort per user, one result entry each) or cohort (one weighted cohort per population spec; scales to millions of users)")
	fs.BoolVar(&sc.Failover, "failover", false, "enable failure-aware failover reactions")
	fs.BoolVar(&sc.Audit, "audit", false, "run under the runtime invariant auditor (fails fast on a violated conservation property; metrics are unchanged)")
	fs.DurationVar((*time.Duration)(&sc.AuditCadence), "audit-cadence", 0, "auditor sweep cadence in simulated time (0 = auditor default; requires -audit)")
	fs.StringVar(&sc.AuditSelfTest, "audit-self-test", "", "inject a named deliberate corruption mid-run to prove the auditor tripwire fires; the run must fail (requires -audit; names: "+strings.Join(cdn.AuditSelfTestNames(), ", ")+")")
	var (
		system    = fs.String("system", "", "named system: Push, Invalidation, TTL, Self, Hybrid, HAT")
		method    = fs.String("method", "TTL", "update method: TTL, Push, Invalidation, Self, AdaptiveTTL, Lease, Regime")
		infra     = fs.String("infra", "Unicast", "infrastructure: Unicast, Multicast, Hybrid, Broadcast")
		seed      = fs.Int64("seed", 1, "deterministic seed")
		popFile   = fs.String("population", "", "@file.json population spec (see workload.Population); default for -usermodel cohort: a heavy-tailed draw of servers*users total users")
		cohorts   = fs.Int("cohorts", 0, "cohorts per server for the heavy-tailed draw (0 = default 8); setting it makes the run draw that population under either user model")
		faults    = fs.String("faults", "", "fault scenario: a built-in name ("+strings.Join(fault.ScenarioNames(), ", ")+") or @file.json")
		fed       = fs.String("federation", "", "multi-CDN federation: a provider count (default real-city sites) or @file.json spec; serial-only")
		planFile  = fs.String("plan", "", "run one scenario plan file (JSON) serially, printing every check and metric per cell; the plan carries its own systems, seeds and scenario, so simulation flags are rejected")
		importArg = fs.String("import", "", "replay an imported deployment: a crawl trace (JSONL or #cdnlog access log, inferred on the fly) or a pre-inferred bundle JSON; supplies the topology, TTLs, workload, population, and fault windows, so the flags those replace are rejected")
		timeout   = fs.Duration("timeout", 0, "wall-clock deadline for the run (0 = none)")
		cpuprof   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof   = fs.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
		traceOut  = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var set []string // the flags the user set, sorted
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	profStop, profErr := profiling.Start(profiling.Config{CPUProfile: *cpuprof, MemProfile: *memprof, Trace: *traceOut})
	if profErr != nil {
		return profErr
	}
	defer func() {
		if perr := profStop(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *planFile != "" {
		var bad []string
		for _, name := range set {
			switch name {
			case "plan", "timeout", "cpuprofile", "memprofile", "trace":
			default:
				bad = append(bad, "-"+name)
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("-plan carries its own systems, seeds and scenario; drop %s", strings.Join(bad, ", "))
		}
		return runPlan(ctx, *planFile, stdout)
	}
	// The scenario reads a zero server count as "use the default", so an
	// explicit -servers 0 would silently run the default topology; -users 0
	// is rejected with it, and an unset -users keeps the default.
	if slices.Contains(set, "servers") && sc.Servers == 0 || slices.Contains(set, "users") && *users == 0 {
		return fmt.Errorf("-servers and -users must be > 0")
	}
	if slices.Contains(set, "users") {
		sc.UsersPerServer = users
	}

	name := *system
	if name == "" {
		name = *method + "/" + *infra
	}
	sys, err := core.ParseSystem(name)
	if err != nil {
		return err
	}

	format := ""
	if *importArg != "" {
		b, f, err := traceimport.LoadAny(*importArg)
		if err != nil {
			return err
		}
		sc.Import, format = *importArg, f
		sc.SetImportBundle(b)
	}
	if *popFile != "" {
		path, ok := strings.CutPrefix(*popFile, "@")
		if !ok {
			return fmt.Errorf("-population wants @file.json, got %q", *popFile)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if sc.Population, err = workload.ParsePopulation(data); err != nil {
			return err
		}
	}
	// The cohort model without a -population or an import draws a
	// heavy-tailed population of servers*users; -cohorts asks for that draw
	// under either model.
	if sc.UserModel == cdn.UserModelCohort && sc.Population == nil && sc.Import == "" || slices.Contains(set, "cohorts") {
		sc.PopulationGen = &plan.PopulationGen{
			TotalUsers:       cmp.Or(sc.Servers, core.DefaultServers) * cmp.Or(*users, core.DefaultUsersPerServer),
			Alpha:            1.2,
			CohortsPerServer: *cohorts,
			Period:           sc.UserTTL,
		}
	}
	if path, ok := strings.CutPrefix(*faults, "@"); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		spec, err := fault.ParseSpec(data)
		if err != nil {
			return err
		}
		sc.Faults = &spec
	} else {
		sc.FaultScenario = *faults
	}
	if *fed != "" {
		spec, err := federation.ParseArg(*fed)
		if err != nil {
			return err
		}
		sc.Federation = &spec
	}

	if err := sc.Validate(sys); err != nil {
		return err
	}
	if b := sc.ImportBundle(); b != nil {
		s := b.Summary
		fmt.Fprintf(stdout, "import\t%s format=%s servers=%d sites=%d users=%d server_ttl=%v updates_per_day=%.0f fault_windows=%d\n",
			sc.Import, format, s.Servers, s.Sites, s.Users, s.ServerTTL.D(), s.UpdatesPerDay, len(b.CrashWindows()))
	}
	opts, err := sc.Options(*seed)
	if err != nil {
		return err
	}
	res, err := core.Run(sys, append(opts, core.WithContext(ctx))...)
	if err != nil {
		return err
	}
	printResult(stdout, sys, res)
	return nil
}

// runPlan executes one scenario plan's cells serially — the calibration view:
// every assertion verdict plus the full metric map per cell, so an operator
// can read off the numbers an SLO should pin. Exits non-zero if any cell
// fails.
func runPlan(ctx context.Context, path string, stdout io.Writer) error {
	p, err := plan.LoadFile(path)
	if err != nil {
		return err
	}
	cells, err := p.Cells()
	if err != nil {
		return err
	}
	failed, total := 0, 0
	var results []*plan.CellResult
	for _, c := range cells {
		r, err := plan.RunCell(c, plan.RunOptions{Ctx: ctx})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, r.Render())
		fmt.Fprint(stdout, r.RenderMetrics())
		results = append(results, r)
		total++
		if r.Failed() {
			failed++
		}
	}
	// Cross-system compares are judged once the whole matrix has run.
	if cr := plan.EvalCompares(p, results); cr != nil {
		fmt.Fprint(stdout, cr.Render())
		total++
		if cr.Failed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d plan cells failed", failed, total)
	}
	return nil
}

func printResult(w io.Writer, sys core.System, res *cdn.Result) {
	fmt.Fprintf(w, "system\t%s (%v on %v)\n", sys.Name, sys.Method, sys.Infra)
	fmt.Fprintf(w, "tree_depth\t%d\n", res.TreeDepth)
	if res.Supernodes > 0 {
		fmt.Fprintf(w, "supernodes\t%d\n", res.Supernodes)
	}
	ss, err := stats.Summarize(res.ServerAvgInconsistency)
	if err == nil {
		fmt.Fprintf(w, "server_inconsistency_s\tmean=%.3f p5=%.3f median=%.3f p95=%.3f\n",
			res.MeanServerInconsistency(), ss.P5, ss.Median, ss.P95)
	}
	us, err := stats.Summarize(res.UserAvgInconsistency)
	if err == nil {
		fmt.Fprintf(w, "user_inconsistency_s\tmean=%.3f p5=%.3f median=%.3f p95=%.3f\n",
			res.MeanUserInconsistency(), us.P5, us.Median, us.P95)
	}
	fmt.Fprintf(w, "update_msgs_to_servers\t%d\n", res.UpdateMsgsToServers)
	fmt.Fprintf(w, "update_msgs_from_provider\t%d\n", res.UpdateMsgsFromProvider)
	fmt.Fprintf(w, "light_msgs\t%d\n", res.LightMsgs)
	for _, class := range res.Accounting.Classes() {
		tot := res.Accounting.ByClass[class]
		fmt.Fprintf(w, "traffic_%v\tmsgs=%d km=%.0f kmKB=%.0f\n", class, tot.Messages, tot.Km, tot.KmKB)
	}
	fmt.Fprintf(w, "user_inconsistent_observation_frac\t%.4f\n", res.InconsistentObservationFrac())
	if res.Crashes > 0 || res.FailedVisits > 0 || res.StaleObservations > 0 {
		fmt.Fprintf(w, "crashes\t%d recovered=%d mean_recovery_s=%.1f\n",
			res.Crashes, res.Recoveries, res.MeanRecoverySeconds())
		fmt.Fprintf(w, "failed_visits\t%d frac=%.4f user_failovers=%d\n",
			res.FailedVisits, res.FailedVisitFrac(), res.UserFailovers)
		fmt.Fprintf(w, "stale_serve_frac\t%.4f\n", res.StaleServeFrac())
		fmt.Fprintf(w, "failover_actions\treparents=%d ttl_fallbacks=%d\n",
			res.ServerReparents, res.TTLFallbacks)
	}
	if res.DegradedSeconds > 0 || res.ProviderSwitches > 0 || res.PeerHandoffs > 0 || res.StrandedUsers > 0 {
		fmt.Fprintf(w, "federation\tdegraded_s=%.1f intervals=%d switches=%d handoffs=%d stranded=%d\n",
			res.DegradedSeconds, res.DegradedEnters, res.ProviderSwitches, res.PeerHandoffs, res.StrandedUsers)
	}
	fmt.Fprintf(w, "events\t%d\n", res.Events)
}
