package cdn

import (
	"testing"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// shardConfig mirrors equivConfig with the sharded engine enabled (the
// auditor composes with sharding since its sweeps moved to window barriers;
// audited variants live in audit_test.go).
func shardConfig(t *testing.T, method consistency.Method, infra consistency.Infra,
	seed int64, pop *workload.Population, scenario string, sharded bool) Config {
	t.Helper()
	updates, err := workload.Schedule(testGame(), seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Method:        method,
		Infra:         infra,
		Topology:      topology.Config{Servers: len(pop.Servers), UsersPerServer: 1, Seed: seed},
		Clusters:      4,
		Updates:       updates,
		Seed:          seed,
		Population:    pop,
		AccountVisits: true,
		Sharded:       sharded,
	}
	if scenario != "" {
		spec, err := fault.Scenario(scenario)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &spec
		cfg.Failover = true
	}
	return cfg
}

// shardSystems is the headline four-system matrix the issue's acceptance
// criterion names (multicast repair paths are serial-only and gated off).
var shardSystems = []struct {
	name   string
	method consistency.Method
	infra  consistency.Infra
}{
	{"TTL", consistency.MethodTTL, consistency.InfraUnicast},
	{"Invalidation", consistency.MethodInvalidation, consistency.InfraUnicast},
	{"Push", consistency.MethodPush, consistency.InfraUnicast},
	{"HAT", consistency.MethodSelfAdaptive, consistency.InfraHybrid},
}

// TestShardedCohortEquivalence re-runs the PR-5 metamorphic check under the
// sharded engine: with the same population and partition, the cohort model
// must still reconstruct the explicit model exactly. This pins the user-model
// seam and the sharded protocol forks (visit-poll, subscription snapshots)
// in one shot.
func TestShardedCohortEquivalence(t *testing.T) {
	const seed = 3
	pop := equivPopulation(t, 12, 110, seed)
	for _, sys := range shardSystems {
		for _, scenario := range []string{"", "crash", "outage"} {
			name := sys.name + "/none"
			if scenario != "" {
				name = sys.name + "/" + scenario
			}
			sys, scenario := sys, scenario
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := shardConfig(t, sys.method, sys.infra, seed, pop, scenario, true)
				exp, coh := runPair(t, cfg)
				assertEquivalent(t, pop, exp, coh)
			})
		}
	}
}

// TestShardedSerialOracle holds the sharded engine to the serial engine on
// everything that is schedule-driven rather than RNG-stream-driven. The two
// modes draw from different RNG streams by construction (per-cell engines),
// so jittered timings differ — but under fault-free Push with a population
// (no random offsets anywhere in the user schedule), message counts, visit
// counts, and topology shape are pure functions of the schedule and must
// agree exactly with the serial oracle.
func TestShardedSerialOracle(t *testing.T) {
	const seed = 3
	pop := equivPopulation(t, 12, 110, seed)
	serialCfg := shardConfig(t, consistency.MethodPush, consistency.InfraUnicast, seed, pop, "", false)
	serialCfg.UserModel = UserModelCohort
	shardedCfg := shardConfig(t, consistency.MethodPush, consistency.InfraUnicast, seed, pop, "", true)
	shardedCfg.UserModel = UserModelCohort
	serial := mustRun(t, serialCfg)
	sharded := mustRun(t, shardedCfg)
	checks := []struct {
		name   string
		sv, hv int
	}{
		{"TreeDepth", serial.TreeDepth, sharded.TreeDepth},
		{"Supernodes", serial.Supernodes, sharded.Supernodes},
		{"UserObservations", serial.UserObservations, sharded.UserObservations},
		{"UpdateMsgsToServers", serial.UpdateMsgsToServers, sharded.UpdateMsgsToServers},
		{"UpdateMsgsFromProvider", serial.UpdateMsgsFromProvider, sharded.UpdateMsgsFromProvider},
		{"Crashes", serial.Crashes, sharded.Crashes},
		{"Recoveries", serial.Recoveries, sharded.Recoveries},
		{"FailedServers", serial.FailedServers, sharded.FailedServers},
		{"LiveServers", serial.LiveServers, sharded.LiveServers},
		{"FailedVisits", serial.FailedVisits, sharded.FailedVisits},
	}
	for _, c := range checks {
		if c.sv != c.hv {
			t.Errorf("%s: serial %d, sharded %d", c.name, c.sv, c.hv)
		}
	}
}

// TestShardedConfigGates pins the serial-only feature gates: options whose
// correctness depends on cross-cell state being readable mid-event must be
// rejected up front, not silently miscomputed.
func TestShardedConfigGates(t *testing.T) {
	const seed = 3
	pop := equivPopulation(t, 12, 110, seed)
	base := shardConfig(t, consistency.MethodTTL, consistency.InfraUnicast, seed, pop, "", true)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"dns-routing", func(c *Config) { c.UseDNSRouting = true }},
		{"switch-every-visit", func(c *Config) { c.UserSwitchEveryVisit = true }},
		// The partition is static, so nothing may mutate the multicast tree.
		{"multicast-repair", func(c *Config) { c.Infra, c.RepairTree = consistency.InfraMulticast, true }},
		{"multicast-failover", func(c *Config) { c.Infra, c.Failover = consistency.InfraMulticast, true }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatalf("%s: sharded run accepted a serial-only option", tc.name)
			}
		})
	}
}
