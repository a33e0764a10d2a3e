package cdn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// auditTestConfig is a short, small run (so the scenario matrix stays fast)
// with the full failover machinery on — the state the auditor has to certify
// is exactly the state the fault reactions mutate.
func auditTestConfig(t *testing.T, method consistency.Method, infra consistency.Infra) Config {
	t.Helper()
	game := workload.GameConfig{
		Phases: []workload.Phase{
			{Name: "p", Duration: 3 * time.Minute, MeanGap: 20 * time.Second},
			{Name: "b", Duration: 2 * time.Minute, MeanGap: 0},
			{Name: "p2", Duration: 3 * time.Minute, MeanGap: 20 * time.Second},
		},
		SizeKB: 1,
	}
	updates, err := workload.Schedule(game, 42)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Method:     method,
		Infra:      infra,
		Topology:   topology.Config{Servers: 40, UsersPerServer: 1, Seed: 11},
		Clusters:   5,
		Updates:    updates,
		Seed:       11,
		RepairTree: true,
		Failover:   true,
		Audit:      &AuditOptions{Cadence: time.Second}, // max practical cadence
	}
}

// Every named fault scenario, with failover reactions enabled and the auditor
// sweeping at maximum cadence, must complete with zero violations: the fault
// machinery may degrade the metrics but never the bookkeeping.
func TestAuditCleanAcrossFaultScenarios(t *testing.T) {
	for _, name := range fault.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := fault.Scenario(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := auditTestConfig(t, consistency.MethodTTL, consistency.InfraMulticast)
			cfg.Faults = &spec
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("audited %s run failed: %v", name, err)
			}
			if res.AuditChecks == 0 {
				t.Fatal("auditor never ran")
			}
		})
	}
}

// The same zero-violation requirement across methods and infrastructures
// under the mixed scenario (the one composing crashes, a provider outage,
// and a partition).
func TestAuditCleanAcrossMethods(t *testing.T) {
	cases := []struct {
		method consistency.Method
		infra  consistency.Infra
	}{
		{consistency.MethodPush, consistency.InfraUnicast},
		{consistency.MethodPush, consistency.InfraMulticast},
		{consistency.MethodInvalidation, consistency.InfraHybrid},
		{consistency.MethodSelfAdaptive, consistency.InfraUnicast},
		{consistency.MethodAdaptiveTTL, consistency.InfraMulticast},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%v-%v", tc.method, tc.infra), func(t *testing.T) {
			t.Parallel()
			spec, err := fault.Scenario("mixed")
			if err != nil {
				t.Fatal(err)
			}
			cfg := auditTestConfig(t, tc.method, tc.infra)
			cfg.Faults = &spec
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("audited run failed: %v", err)
			}
			if res.AuditChecks == 0 {
				t.Fatal("auditor never ran")
			}
		})
	}
}

// The auditor must be a pure observer: every reported metric is identical
// with auditing on or off. Only the processed-event count may differ (sweeps
// are engine events).
func TestAuditDoesNotPerturbMetrics(t *testing.T) {
	spec, err := fault.Scenario("churn")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(auditOn bool) *Result {
		cfg := auditTestConfig(t, consistency.MethodTTL, consistency.InfraMulticast)
		cfg.Faults = &spec
		if !auditOn {
			cfg.Audit = nil
		}
		return mustRun(t, cfg)
	}
	on, off := mk(true), mk(false)
	if fmt.Sprint(on.ServerAvgInconsistency) != fmt.Sprint(off.ServerAvgInconsistency) {
		t.Error("server inconsistency differs with auditing on")
	}
	if fmt.Sprint(on.UserAvgInconsistency) != fmt.Sprint(off.UserAvgInconsistency) {
		t.Error("user inconsistency differs with auditing on")
	}
	if on.Accounting.Total() != off.Accounting.Total() {
		t.Errorf("accounting differs: %+v vs %+v", on.Accounting.Total(), off.Accounting.Total())
	}
	if on.Crashes != off.Crashes || on.Recoveries != off.Recoveries ||
		on.ServerReparents != off.ServerReparents || on.StaleObservations != off.StaleObservations {
		t.Error("robustness counters differ with auditing on")
	}
	if on.Events <= off.Events {
		t.Errorf("audited run processed %d events, unaudited %d — sweeps missing", on.Events, off.Events)
	}
}

// Mutation tests: seed a deliberate accounting bug mid-run and require the
// auditor to catch it, report the right property, and abort the run. This is
// the auditor's own regression suite — a predicate that silently stopped
// checking would pass every clean-run test above.
func TestAuditorCatchesSeededCorruption(t *testing.T) {
	// Each case pins the whole violation — property, server and detail
	// text — so a change to how the auditor builds its labels cannot
	// silently change what an operator reads. The runs are seeded, so the
	// counts inside a detail are the same on every run.
	cohortModel := func(cfg *Config) {
		cfg.Topology.Servers = 12
		cfg.Population = equivPopulation(t, 12, 110, 3)
		cfg.UserModel = UserModelCohort
		cfg.AccountVisits = true
	}
	sharded := func(cfg *Config) { cfg.Sharded = true }
	cases := []struct {
		name     string
		setup    func(cfg *Config)
		corrupt  func(s *simulation)
		property string
		server   int
		detail   string
	}{
		{
			name:     "negative catch-up sum",
			corrupt:  func(s *simulation) { s.nodes[5].catchupSum = -1 },
			property: "series-nonnegative",
			server:   5,
			detail:   "node 5 catchupSum[0] = -1 is negative",
		},
		{
			name:     "version beyond published",
			corrupt:  func(s *simulation) { s.nodes[3].version = s.cells[0].published + 7 },
			property: "version-bounds",
			server:   3,
			detail:   "node 3 holds version 17 outside [0, 10]",
		},
		{
			name:     "version regression",
			corrupt:  func(s *simulation) { s.nodes[3].version = 0 },
			property: "version-monotonic",
			server:   3,
			detail:   "node 3 regressed from version 10 to 0 within generation 0",
		},
		{
			name:     "negative message counter",
			corrupt:  func(s *simulation) { s.cells[0].updateMsgsToServers = -5 },
			property: "counter-nonnegative",
			server:   -1,
			detail:   "updateMsgsToServers = -5",
		},
		{
			name:     "unaccounted delivery attempt",
			corrupt:  func(s *simulation) { s.cells[0].deliverAttempts++ },
			property: "delivery-conservation",
			server:   -1,
			detail:   "cell 0: 321 delivery attempts != 320 sends + 0 recorded drops",
		},
		{
			name: "down node counted live",
			corrupt: func(s *simulation) {
				s.nodes[7].down = true
				s.alive[7] = true
			},
			property: "liveness-bookkeeping",
			server:   7,
			detail:   "node 7 is down but still marked alive in the tree bookkeeping",
		},
		{
			name:     "user inconsistent beyond observations",
			corrupt:  func(s *simulation) { s.um.(*cohortUsers).cohorts[9].leader.inconsistent += 1 << 20 },
			property: "count-bounded",
			server:   -1,
			detail:   "cohort 9 leader inconsistent observations: part 1048576 exceeds total 21",
		},
		{
			name:     "NaN user catch-up sum",
			corrupt:  func(s *simulation) { s.um.(*cohortUsers).cohorts[4].leader.catchupSum = math.NaN() },
			property: "series-finite",
			server:   -1,
			detail:   "cohort 4 catchupSum[0] = NaN is not finite",
		},
		{
			name:     "cohort follower inconsistent beyond observations",
			setup:    cohortModel,
			corrupt:  func(s *simulation) { s.um.(*cohortUsers).cohorts[4].follow.inconsistent += 1 << 20 },
			property: "count-bounded",
			server:   -1,
			detail:   "cohort 4 follower inconsistent observations: part 1048576 exceeds total 20",
		},
		{
			name: "NaN recovery duration",
			corrupt: func(s *simulation) {
				c := s.cells[0]
				c.crashes++
				c.recoveries++
				c.recoverySeconds = append(c.recoverySeconds, math.NaN())
			},
			property: "series-finite",
			server:   -1,
			detail:   "cell 0 recoverySeconds[0] = NaN is not finite",
		},
		{
			name:  "sharded catch-up delay beyond the regime max",
			setup: sharded,
			corrupt: func(s *simulation) {
				// The corruption event runs in cell 0, so it may only touch
				// a node that cell owns.
				for i := 1; i < len(s.nodes); i++ {
					if s.cellOf[i] == 0 {
						s.aud.onDelay(i, s.aud.delayBound+time.Hour)
						return
					}
				}
			},
			property: "delay-bounded",
			server:   12,
			detail:   "catch-up delay of node 12 = 1h8m0.70492s exceeds the regime max 8m0.70492s",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := auditTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
			if tc.setup != nil {
				tc.setup(&cfg)
			}
			cfg, err := cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Let the run warm up (versions advance, counters move), then
			// corrupt one piece of state behind the simulation's back.
			s.at(0, 4*time.Minute, func() { tc.corrupt(s) })
			_, err = s.run()
			var v *audit.Violation
			if !errors.As(err, &v) {
				t.Fatalf("corrupted run returned %v, want an audit violation", err)
			}
			if v.Property != tc.property {
				t.Errorf("caught property %q, want %q (violation: %v)", v.Property, tc.property, v)
			}
			if v.Server != tc.server {
				t.Errorf("violation names server %d, want %d (violation: %v)", v.Server, tc.server, v)
			}
			if v.Detail != tc.detail {
				t.Errorf("violation detail\n  got  %q\n  want %q", v.Detail, tc.detail)
			}
			if v.Time < 4*time.Minute {
				t.Errorf("violation stamped at %v, before the corruption at 4m", v.Time)
			}
		})
	}
}

// Sharded runs drive the auditor from window barriers instead of engine
// events. Two things must hold at once, across every fault scenario: the
// audited run completes with zero violations, and — because barrier sweeps
// add no engine events — its Result is bit-identical to the unaudited run,
// Events included.
func TestShardedAuditMatrix(t *testing.T) {
	scenarios := append([]string{""}, fault.ScenarioNames()...)
	const seed = 3
	pop := equivPopulation(t, 12, 110, seed)
	for _, scenario := range scenarios {
		name := scenario
		if name == "" {
			name = "none"
		}
		scenario := scenario
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mk := func(auditOn bool) *Result {
				cfg := shardConfig(t, consistency.MethodTTL, consistency.InfraUnicast, seed, pop, scenario, true)
				cfg.UserModel = UserModelCohort
				if auditOn {
					cfg.Audit = &AuditOptions{Cadence: time.Second}
				}
				return mustRun(t, cfg)
			}
			plain, aud := mk(false), mk(true)
			if aud.AuditChecks == 0 {
				t.Fatal("sharded auditor never ran")
			}
			stripped := *aud
			stripped.AuditChecks = 0
			if !reflect.DeepEqual(plain, &stripped) {
				t.Errorf("auditing perturbed the sharded run:\n  off: %+v\n  on:  %+v", plain, &stripped)
			}
		})
	}
}

// AuditOptions.SelfTest arms one named, deliberate corruption mid-run; the run
// must then fail with exactly the matching property, in both execution modes.
// This is the operator-facing end-to-end proof that the tripwire is live —
// the in-process analogue of TestAuditorCatchesSeededCorruption.
func TestAuditSelfTest(t *testing.T) {
	const seed = 3
	pop := equivPopulation(t, 12, 110, seed)
	cases := []struct{ name, property string }{
		{"version-bounds", "version-bounds"},
		{"counter-negative", "counter-nonnegative"},
		{"delivery-conservation", "delivery-conservation"},
	}
	modes := []struct {
		name    string
		sharded bool
	}{{"serial", false}, {"sharded", true}}
	for _, mode := range modes {
		for _, tc := range cases {
			mode, tc := mode, tc
			t.Run(mode.name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				cfg := shardConfig(t, consistency.MethodTTL, consistency.InfraUnicast, seed, pop, "", mode.sharded)
				cfg.UserModel = UserModelCohort
				cfg.Audit = &AuditOptions{Cadence: time.Second, SelfTest: tc.name}
				_, err := Run(cfg)
				var v *audit.Violation
				if !errors.As(err, &v) {
					t.Fatalf("self-test %q returned %v, want an audit violation", tc.name, err)
				}
				if v.Property != tc.property {
					t.Errorf("self-test %q tripped property %q, want %q (%v)", tc.name, v.Property, tc.property, v)
				}
			})
		}
	}
}

// An unknown self-test name is a configuration error, not a silent no-op: a
// typo must never let a run that was supposed to prove the tripwire pass.
func TestAuditSelfTestValidation(t *testing.T) {
	cfg := auditTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.Audit = &AuditOptions{SelfTest: "bogus"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown audit self-test name accepted")
	}
}

// The per-event delay bound fires on a delay beyond the fault-free regime
// maximum, and the bound is disabled (never a false positive) once faults are
// configured.
func TestAuditorDelayBound(t *testing.T) {
	cfg := auditTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	if s.aud.delayBound <= 0 {
		t.Fatal("fault-free TTL run has no delay bound")
	}
	s.aud.onDelay(3, s.aud.delayBound+time.Hour)
	if v := s.aud.violation; v == nil || v.Property != "delay-bounded" {
		t.Errorf("oversized delay not flagged: %v", v)
	}

	spec, err := fault.Scenario("outage")
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := auditTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg2.Faults = &spec
	cfg2, err = cfg2.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newSimulation(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.run(); err != nil {
		t.Fatal(err)
	}
	if s2.aud.delayBound != 0 {
		t.Errorf("faulty run kept strict delay bound %v; an outage legitimately exceeds it", s2.aud.delayBound)
	}
}

// Cancelling the run's context aborts it promptly with the context's error,
// whether it was cancelled before the run or during it.
func TestRunHonorsContextCancellation(t *testing.T) {
	cfg := auditTestConfig(t, consistency.MethodTTL, consistency.InfraMulticast)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := Run(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	// Parked visits spend no events: the server polls of 170 servers span
	// two tick strides, and the first tick cancels.
	cfg.Topology.Servers = 170
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	cfg.OnTick = func(time.Duration, uint64) { cancel() }
	if _, err := Run(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled mid-way returned %v, want context.Canceled", err)
	}
}

// The OnTick probe observes monotone progress through the run.
func TestRunOnTickProbe(t *testing.T) {
	cfg := auditTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.Audit = nil
	cfg.Topology.Servers = 170 // two tick strides of server polls
	var calls int
	var lastNow time.Duration
	var lastEvents uint64
	cfg.OnTick = func(now time.Duration, events uint64) {
		if now < lastNow || events <= lastEvents && calls > 0 {
			t.Fatalf("tick ran backwards: now %v->%v events %d->%d", lastNow, now, lastEvents, events)
		}
		lastNow, lastEvents = now, events
		calls++
	}
	res := mustRun(t, cfg)
	if calls == 0 {
		t.Fatal("tick probe never ran")
	}
	if lastEvents > res.Events {
		t.Errorf("probe saw %d events, result reports %d", lastEvents, res.Events)
	}
}
