package cdn

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
)

// fedTestConfig is auditTestConfig plus a three-provider federation and a
// named fault scenario: failure-aware reactions on, the runtime auditor at
// maximum cadence, so every run doubles as an audited-clean certificate for
// the federation ledgers.
func fedTestConfig(t *testing.T, method consistency.Method, infra consistency.Infra,
	spec federation.Spec, scenario string) Config {
	t.Helper()
	cfg := auditTestConfig(t, method, infra)
	cfg.Federation = &spec
	if scenario != "" {
		fs, err := fault.Scenario(scenario)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &fs
	}
	return cfg
}

// fedSystems is the federation test matrix: the TTL family (which polls the
// origin and therefore exercises routing, hand-off, and degradation) plus
// Invalidation (origin fetches) and the paper's HAT proposal.
var fedSystems = []struct {
	name   string
	method consistency.Method
	infra  consistency.Infra
}{
	{"TTL", consistency.MethodTTL, consistency.InfraUnicast},
	{"Invalidation", consistency.MethodInvalidation, consistency.InfraUnicast},
	{"Push", consistency.MethodPush, consistency.InfraUnicast},
	{"HAT", consistency.MethodSelfAdaptive, consistency.InfraHybrid},
}

// Every federation scenario must be seed-deterministic: the same
// configuration run twice produces a bit-identical Result, under -race. The
// federation runtime draws no randomness of its own (anycast homing is a
// pure function of locations, the broker iterates in index order), so any
// divergence here means hidden state leaked into the event stream.
func TestFederationDeterminism(t *testing.T) {
	spec := federation.DefaultSpec(3)
	spec.Broker = &federation.Broker{
		Period:     fault.Duration(20 * time.Second),
		Hysteresis: 0.2,
		MinDwell:   fault.Duration(time.Minute),
	}
	for _, sys := range fedSystems {
		for _, scenario := range []string{"provider-storm", "broker-flap"} {
			sys, scenario := sys, scenario
			t.Run(sys.name+"/"+scenario, func(t *testing.T) {
				t.Parallel()
				base := mustRun(t, fedTestConfig(t, sys.method, sys.infra, spec, scenario))
				again := mustRun(t, fedTestConfig(t, sys.method, sys.infra, spec, scenario))
				if !reflect.DeepEqual(base, again) {
					t.Errorf("repeated run diverged:\n  first:  %+v\n  second: %+v", base, again)
				}
			})
		}
	}
}

// The headline robustness claim: an all-providers-down storm ends with zero
// permanently-stranded users. Under the default spec (StaleCap 0 = unlimited
// serve-stale) degraded servers keep answering visits with stale content, so
// users are never turned away; once the storm lifts, the next successful
// origin contact closes every degradation interval. The run must also be
// audit-clean — the degradation/switch/hand-off ledgers balance throughout.
func TestFederationStormServesStale(t *testing.T) {
	res := mustRun(t, fedTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast,
		federation.DefaultSpec(3), "provider-storm"))
	if res.AuditChecks == 0 {
		t.Fatal("auditor never ran")
	}
	if res.StrandedUsers != 0 {
		t.Errorf("storm stranded %d users, want 0 (serve-stale with no cap)", res.StrandedUsers)
	}
	if res.DegradedSeconds <= 0 {
		t.Errorf("DegradedSeconds = %v, want > 0 (the storm's overlap takes all providers down)", res.DegradedSeconds)
	}
	if res.DegradedEnters == 0 || res.DegradedEnters != res.DegradedExits {
		t.Errorf("degradation intervals unbalanced: %d enters, %d exits", res.DegradedEnters, res.DegradedExits)
	}
	if res.PeerHandoffs == 0 {
		t.Error("PeerHandoffs = 0, want > 0 (staggered storm leaves peers alive to hand off to)")
	}
}

// A staleness cap turns long degradation into failed visits: with every
// provider down for a third of the run and a 10-second cap, visits past the
// cap are denied, so the capped run must fail strictly more visits than the
// uncapped one. Users still recover once the storm lifts — no one ends the
// run stranded in either mode.
func TestFederationStaleCapDeniesVisits(t *testing.T) {
	storm := fault.Spec{ProviderStorm: &fault.ProviderStorm{StartFrac: 0.35, DurFrac: 0.3}}
	run := func(cap time.Duration) *Result {
		spec := federation.DefaultSpec(3)
		spec.StaleCap = fault.Duration(cap)
		cfg := fedTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast, spec, "")
		cfg.Faults = &storm
		return mustRun(t, cfg)
	}
	uncapped := run(0)
	capped := run(10 * time.Second)
	if capped.FailedVisits <= uncapped.FailedVisits {
		t.Errorf("capped run failed %d visits, uncapped %d; want capped > uncapped",
			capped.FailedVisits, uncapped.FailedVisits)
	}
	if uncapped.StrandedUsers != 0 || capped.StrandedUsers != 0 {
		t.Errorf("stranded users: uncapped %d, capped %d, want 0/0 (storm ends before the horizon)",
			uncapped.StrandedUsers, capped.StrandedUsers)
	}
}

// Broker hysteresis and dwell exist to suppress flapping: under the
// broker-flap scenario (provider 0 cycling down/up), a broker with a dwell
// floor and a distance-advantage threshold must re-home servers strictly
// fewer times than a trigger-happy broker with neither, and both runs must
// stay audit-clean.
func TestFederationBrokerDwellSuppressesFlapping(t *testing.T) {
	run := func(b federation.Broker) *Result {
		spec := federation.DefaultSpec(3)
		spec.Broker = &b
		return mustRun(t, fedTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast,
			spec, "broker-flap"))
	}
	eager := run(federation.Broker{Period: fault.Duration(15 * time.Second)})
	damped := run(federation.Broker{
		Period:     fault.Duration(15 * time.Second),
		Hysteresis: 0.5,
		MinDwell:   fault.Duration(4 * time.Minute),
	})
	if eager.ProviderSwitches == 0 {
		t.Fatal("eager broker never switched providers under broker-flap")
	}
	if damped.ProviderSwitches >= eager.ProviderSwitches {
		t.Errorf("damped broker switched %d times, eager %d; want damped < eager",
			damped.ProviderSwitches, eager.ProviderSwitches)
	}
}

// Per-provider propagation lag is visible end-to-end: when every provider
// serves new versions a minute late, users observe strictly more stale
// content than with immediate propagation, all else equal.
func TestFederationPropagationLagIncreasesStaleness(t *testing.T) {
	run := func(lag time.Duration) *Result {
		spec := federation.DefaultSpec(3)
		for i := range spec.Providers {
			spec.Providers[i].Propagation = fault.Duration(lag)
		}
		return mustRun(t, fedTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast, spec, ""))
	}
	prompt := run(0)
	lagged := run(time.Minute)
	if lagged.StaleObservations <= prompt.StaleObservations {
		t.Errorf("lagged propagation saw %d stale observations, immediate %d; want lagged > immediate",
			lagged.StaleObservations, prompt.StaleObservations)
	}
}

// A fault-free federated run with per-provider TTL overrides completes
// audit-clean: homing, per-provider poll cadences, and the publication
// fan-out to every provider hold the conservation invariants without any
// outage in play.
func TestFederationQuiescentAuditClean(t *testing.T) {
	spec := federation.DefaultSpec(3)
	spec.Providers[1].TTL = fault.Duration(30 * time.Second)
	spec.Providers[2].TTL = fault.Duration(2 * time.Minute)
	for _, sys := range fedSystems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			t.Parallel()
			res := mustRun(t, fedTestConfig(t, sys.method, sys.infra, spec, ""))
			if res.AuditChecks == 0 {
				t.Fatal("auditor never ran")
			}
			if res.DegradedSeconds != 0 || res.DegradedEnters != 0 {
				t.Errorf("fault-free run degraded: %v seconds over %d intervals",
					res.DegradedSeconds, res.DegradedEnters)
			}
		})
	}
}

// Federated provider 0 shares node 0's network Key as well as its ID, so
// the origin's traffic — whether sent as node 0 or as provider 0 — is booked
// in one ledger row under "provider", and every other provider gets a row
// of its own.
func TestFederationProviderZeroSharesNodeZeroSender(t *testing.T) {
	spec := federation.DefaultSpec(3)
	cfg, err := fedTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast, spec, "").withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if s.prov[0].ep.Key != s.nodes[0].ep.Key {
		t.Errorf("provider 0 has Key %d, node 0 has %d", s.prov[0].ep.Key, s.nodes[0].ep.Key)
	}
	rows := map[string]int{}
	ids, totals := s.cells[0].net.View().SenderRows()
	for i, id := range ids {
		rows[id]++
		if id == "provider" && totals[i].Messages != res.Accounting.BySender["provider"].Messages {
			t.Errorf("provider row holds %d messages, the result %d", totals[i].Messages, res.Accounting.BySender["provider"].Messages)
		}
	}
	for _, id := range []string{"provider", "provider1", "provider2"} {
		if rows[id] != 1 {
			t.Errorf("sender %q has %d ledger rows, want 1", id, rows[id])
		}
		if res.Accounting.BySender[id].Messages == 0 {
			t.Errorf("sender %q sent nothing", id)
		}
	}
}

// The cohort user model must remain exactly equivalent to the explicit model
// under federation: serve-stale denials, deferred visit-polls routed to
// federated providers, and failover re-homing all batch without drift. This
// extends the PR-5 metamorphic suite to the federated origin layer and, via
// the shared config, certifies both models audit-clean under a storm.
func TestFederationCohortEquivalence(t *testing.T) {
	const seed = 3
	pop := equivPopulation(t, 12, 110, seed)
	for _, sys := range fedSystems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			t.Parallel()
			cfg := equivConfig(t, sys.method, sys.infra, seed, pop, "provider-storm")
			spec := federation.DefaultSpec(3)
			cfg.Federation = &spec
			exp, coh := runPair(t, cfg)
			assertEquivalent(t, pop, exp, coh)
			fed := []struct {
				name   string
				ev, cv int
			}{
				{"DegradedEnters", exp.DegradedEnters, coh.DegradedEnters},
				{"DegradedExits", exp.DegradedExits, coh.DegradedExits},
				{"ProviderSwitches", exp.ProviderSwitches, coh.ProviderSwitches},
				{"PeerHandoffs", exp.PeerHandoffs, coh.PeerHandoffs},
				{"StrandedUsers", exp.StrandedUsers, coh.StrandedUsers},
			}
			for _, c := range fed {
				if c.ev != c.cv {
					t.Errorf("%s: explicit %d, cohort %d", c.name, c.ev, c.cv)
				}
			}
			if exp.DegradedSeconds != coh.DegradedSeconds {
				t.Errorf("DegradedSeconds: explicit %v, cohort %v", exp.DegradedSeconds, coh.DegradedSeconds)
			}
		})
	}
}

// Federation composes with a fixed set of the simulation's modes; the rest
// are rejected up front with an error naming the conflict.
func TestFederationConfigGates(t *testing.T) {
	spec := federation.DefaultSpec(2)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{
			name: "sharded",
			mut:  func(c *Config) { c.Shards = 2 },
			want: "sharded runs cannot use Federation",
		},
		{
			name: "lease",
			mut:  func(c *Config) { c.Method = consistency.MethodLease },
			want: "incompatible with MethodLease",
		},
		{
			name: "regime",
			mut:  func(c *Config) { c.Method = consistency.MethodRegime },
			want: "incompatible with MethodRegime",
		},
		{
			name: "broadcast",
			mut: func(c *Config) {
				c.Method = consistency.MethodPush
				c.Infra = consistency.InfraBroadcast
			},
			want: "incompatible with InfraBroadcast",
		},
		{
			name: "invalid spec",
			mut:  func(c *Config) { c.Federation = &federation.Spec{} },
			want: "at least one provider",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
			cfg.Federation = &spec
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}
