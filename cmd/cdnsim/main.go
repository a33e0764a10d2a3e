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
//	cdnsim -system HAT -shards 4           # sharded multi-core engine, 4 workers
//	cdnsim -system HAT -shards 4 -audit    # sharded AND audited (barrier sweeps)
//	cdnsim -system HAT -timeout 2m         # abort if the run exceeds 2 minutes
//	cdnsim -plan plans/10-baseline.json    # run a scenario plan's cells serially
//	cdnsim -system HAT -import crawl.jsonl # replay an imported deployment (trace or bundle)
//	cdnsim -system HAT -cpuprofile cpu.out # pprof CPU profile (also -memprofile, -trace)
//
// SIGINT/SIGTERM cancels the simulation promptly at its next event-loop
// tick; -timeout bounds the run's wall-clock time the same way.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
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
	var (
		system    = fs.String("system", "", "named system: Push, Invalidation, TTL, Self, Hybrid, HAT")
		method    = fs.String("method", "TTL", "update method: TTL, Push, Invalidation, Self, AdaptiveTTL, Lease, Regime")
		infra     = fs.String("infra", "Unicast", "infrastructure: Unicast, Multicast, Hybrid, Broadcast")
		servers   = fs.Int("servers", 170, "content servers")
		users     = fs.Int("users", 5, "end-users per server")
		serverTTL = fs.Duration("serverttl", 60*time.Second, "content-server TTL")
		userTTL   = fs.Duration("userttl", 10*time.Second, "end-user visit period")
		updateKB  = fs.Float64("updatekb", 1, "update payload size (KB)")
		clusters  = fs.Int("clusters", 20, "hybrid cluster count")
		seed      = fs.Int64("seed", 1, "deterministic seed")
		switching = fs.Bool("switch", false, "users switch servers every visit (Figure 24 scenario)")
		usermodel = fs.String("usermodel", "explicit", "end-user model: explicit (one actor per user) or cohort (weighted per-server cohorts; scales to millions of users)")
		popFile   = fs.String("population", "", "@file.json population spec (see workload.Population); default for -usermodel cohort: a heavy-tailed draw of servers*users total users")
		cohorts   = fs.Int("cohorts", 8, "cohorts per server for the generated population")
		shards    = fs.Int("shards", 0, "sharded multi-core engine worker count (0 = serial engine; results are identical for any value >= 1)")
		cells     = fs.Int("shardcells", 0, "sharded partition cell count (0 = default 8); the cell count, not the worker count, shapes sharded results")
		faults    = fs.String("faults", "", "fault scenario: a built-in name ("+strings.Join(fault.ScenarioNames(), ", ")+") or @file.json")
		fed       = fs.String("federation", "", "multi-CDN federation: a provider count (default real-city sites) or @file.json spec; serial-only")
		failover  = fs.Bool("failover", false, "enable failure-aware failover reactions")
		audit     = fs.Bool("audit", false, "run under the runtime invariant auditor (fails fast on a violated conservation property; metrics are unchanged; composes with -shards)")
		auditCad  = fs.Duration("audit-cadence", 0, "auditor sweep cadence in simulated time (0 = auditor default)")
		auditSelf = fs.String("audit-self-test", "", "inject a named deliberate corruption mid-run to prove the auditor tripwire fires; the run must fail (requires -audit; names: "+strings.Join(cdn.AuditSelfTestNames(), ", ")+")")
		planFile  = fs.String("plan", "", "run one scenario plan file (JSON) serially, printing every check and metric per cell; other simulation flags are ignored")
		importArg = fs.String("import", "", "replay an imported deployment: a crawl trace (JSONL or #cdnlog access log, inferred on the fly) or a pre-inferred bundle JSON; supplies the topology, TTLs, workload, population, and fault windows, so the flags those replace are rejected")
		timeout   = fs.Duration("timeout", 0, "wall-clock deadline for the run (0 = none)")
		cpuprof   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof   = fs.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
		traceOut  = fs.String("trace", "", "write a runtime execution trace to this file")
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
	if *timeout < 0 || *auditCad < 0 {
		return fmt.Errorf("-timeout and -audit-cadence must be >= 0")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *planFile != "" {
		if *importArg != "" {
			return fmt.Errorf("-plan and -import are mutually exclusive (a plan names its import inside the file)")
		}
		return runPlan(ctx, *planFile, stdout)
	}

	name := *system
	if name == "" {
		name = *method + "/" + *infra
	}
	sys, err := core.ParseSystem(name)
	if err != nil {
		return err
	}

	var opts []core.Option
	if *importArg != "" {
		if err := rejectImportConflicts(fs); err != nil {
			return err
		}
		b, format, err := traceimport.LoadAny(*importArg)
		if err != nil {
			return err
		}
		s := b.Summary
		fmt.Fprintf(stdout, "import\t%s format=%s servers=%d sites=%d users=%d server_ttl=%v updates_per_day=%.0f fault_windows=%d\n",
			*importArg, format, s.Servers, s.Sites, s.Users, s.ServerTTL.D(), s.UpdatesPerDay, len(b.CrashWindows()))
		bopts, err := b.Options()
		if err != nil {
			return err
		}
		// Seed first: the bundle's game schedule is drawn from the seed
		// in effect when its option applies.
		opts = append(opts, core.WithClusters(*clusters), core.WithSeed(*seed))
		opts = append(opts, bopts...)
		if *usermodel != "" {
			opts = append(opts, core.WithUserModel(*usermodel))
		}
	} else {
		opts = []core.Option{
			core.WithServers(*servers),
			core.WithUsersPerServer(*users),
			core.WithServerTTL(*serverTTL),
			core.WithUserTTL(*userTTL),
			core.WithUpdateSizeKB(*updateKB),
			core.WithClusters(*clusters),
			core.WithSeed(*seed),
		}
		if *switching {
			opts = append(opts, core.WithUserSwitching())
		}
		pop, err := resolvePopulation(*usermodel, *popFile, *servers, *users, *cohorts, *userTTL, *seed)
		if err != nil {
			return err
		}
		if pop != nil {
			opts = append(opts, core.WithPopulation(pop))
		}
		if *usermodel != "" {
			opts = append(opts, core.WithUserModel(*usermodel))
		}
		if *faults != "" {
			spec, err := resolveFaults(*faults)
			if err != nil {
				return err
			}
			opts = append(opts, core.WithFaults(spec))
		}
		if *fed != "" {
			spec, err := federation.ParseArg(*fed)
			if err != nil {
				return err
			}
			opts = append(opts, core.WithFederation(spec))
		}
	}
	if *failover {
		opts = append(opts, core.WithFailover())
	}
	if *shards > 0 {
		opts = append(opts, core.WithShards(*shards))
	}
	if *cells > 0 {
		opts = append(opts, core.WithShardCells(*cells))
	}
	if *auditSelf != "" && !*audit {
		return fmt.Errorf("-audit-self-test requires -audit")
	}
	if *audit {
		opts = append(opts, core.WithAudit(*auditCad))
		if *auditSelf != "" {
			opts = append(opts, core.WithAuditSelfTest(*auditSelf))
		}
	}
	opts = append(opts, core.WithContext(ctx))
	res, err := core.Run(sys, opts...)
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

// rejectImportConflicts fails up front when -import is combined with a flag
// the imported bundle already supplies. Only flags the user actually set
// are conflicts; defaults pass through untouched.
func rejectImportConflicts(fs *flag.FlagSet) error {
	conflicts := map[string]bool{
		"servers": true, "users": true, "serverttl": true, "userttl": true,
		"updatekb": true, "population": true, "cohorts": true, "switch": true,
		"faults": true, "federation": true, "shards": true, "shardcells": true,
	}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if conflicts[f.Name] {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("-import supplies the deployment; drop the conflicting flags: %s", strings.Join(bad, ", "))
	}
	return nil
}

// resolvePopulation maps the -population/-usermodel flags to a population
// spec: "@path" loads a JSON spec file; an empty -population under the
// cohort model draws a heavy-tailed population matching -servers and -users
// in total.
func resolvePopulation(usermodel, popFile string, servers, users, cohorts int, userTTL time.Duration, seed int64) (*workload.Population, error) {
	if popFile != "" {
		path, ok := strings.CutPrefix(popFile, "@")
		if !ok {
			return nil, fmt.Errorf("-population wants @file.json, got %q", popFile)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return workload.ParsePopulation(data)
	}
	if usermodel != cdn.UserModelCohort {
		return nil, nil
	}
	return workload.GeneratePopulation(workload.PopulationConfig{
		Servers:          servers,
		TotalUsers:       servers * users,
		Alpha:            1.2,
		CohortsPerServer: cohorts,
		Period:           userTTL,
		Seed:             seed,
	})
}

// resolveFaults maps the -faults flag to a spec: "@path" loads a JSON
// scenario file, anything else is a built-in scenario name.
func resolveFaults(arg string) (fault.Spec, error) {
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return fault.Spec{}, err
		}
		return fault.ParseSpec(data)
	}
	return fault.Scenario(arg)
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
