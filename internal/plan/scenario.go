package plan

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/traceimport"
	"cdnconsistency/internal/workload"
)

// Scenario describes what one simulation runs against — topology, protocol
// parameters, workload, users, faults, federation and engine — independent
// of which system runs it and at which seed. A Plan embeds one; cmd/cdnsim
// fills one from its flags; every Section 4-5 figure cell is one (see
// figures.SimScale). Options is the only path from a scenario to a core
// configuration, and Validate the only place its rules are checked.
type Scenario struct {
	// Import replays an inferred deployment (internal/traceimport): the
	// path — relative to the plan file's directory — of a bundle JSON, a
	// JSONL crawl trace, or a "#cdnlog" access log. The bundle fixes the
	// deployment, so Import is mutually exclusive with every field in
	// importExclusions. The file is resolved by LoadFile (or attached with
	// SetImportBundle), never by Validate, which keeps plan parsing free of
	// file IO.
	Import string `json:"import,omitempty"`

	// Topology. Zero fields keep the simulation defaults (core.DefaultServers
	// servers, 20 clusters); an absent UsersPerServer keeps
	// core.DefaultUsersPerServer users per server, and an explicit 0 runs
	// with no end-users.
	Servers         int  `json:"servers,omitempty"`
	UsersPerServer  *int `json:"users_per_server,omitempty"`
	Clusters        int  `json:"clusters,omitempty"`
	TreeDegree      int  `json:"tree_degree,omitempty"`
	SupernodeDegree int  `json:"supernode_degree,omitempty"`

	// Network model. UplinkKBps sets every endpoint's output-port rate
	// (0 keeps netmodel's 12500 KB/s); DisableQueuing turns output-port
	// serialization off.
	UplinkKBps     float64 `json:"uplink_kbps,omitempty"`
	DisableQueuing bool    `json:"disable_queuing,omitempty"`

	// Protocol parameters. Zero keeps the defaults (cdn.DefaultServerTTL,
	// 10s user TTL, 1 KB updates).
	ServerTTL    Duration `json:"server_ttl,omitempty"`
	UserTTL      Duration `json:"user_ttl,omitempty"`
	UpdateSizeKB float64  `json:"update_size_kb,omitempty"`

	// Game replaces the default publication workload (the paper's trace
	// day) with an explicit phase list.
	Game *GameSpec `json:"game,omitempty"`

	// UserModel selects how the population is cut into cohorts (see
	// cdn.Config.UserModel): "" or "explicit" (a cohort per user, one
	// result entry per user) or "cohort" (one weighted cohort per
	// population spec; requires Population, PopulationGen or Import).
	UserModel string `json:"user_model,omitempty"`
	// UserSwitch makes every visit hit a uniformly random server (the
	// Figure 24 scenario).
	UserSwitch bool `json:"user_switch,omitempty"`
	// DNSResolverTTL > 0 routes every visit through the modeled DNS plane
	// (local resolver caches with this TTL, authoritative nearest-k load
	// balancing). It cannot be combined with a pinned population.
	DNSResolverTTL Duration `json:"dns_resolver_ttl,omitempty"`
	// VisitAccounting books every end-user request into the traffic ledger
	// as a zero-distance content message.
	VisitAccounting bool `json:"visit_accounting,omitempty"`
	// Population pins the user population explicitly; PopulationGen draws
	// one. At most one of the two may be set.
	Population    *workload.Population `json:"population,omitempty"`
	PopulationGen *PopulationGen       `json:"population_gen,omitempty"`

	// Federation runs against a multi-CDN federation: provider origins with
	// distinct TTLs and propagation lags, anycast homing, peering hand-off,
	// an optional meta-CDN broker, and serve-stale degradation (see
	// internal/federation). The federation layer is serial-only.
	Federation *federation.Spec `json:"federation,omitempty"`

	// FaultScenario names a built-in fault scenario (fault.ScenarioNames);
	// Faults spells one out inline. At most one of the two may be set.
	FaultScenario string      `json:"fault_scenario,omitempty"`
	Faults        *fault.Spec `json:"faults,omitempty"`
	// Failover enables the failure-aware protocol reactions.
	Failover bool `json:"failover,omitempty"`
	// TreeRepair re-attaches the multicast subtrees a crashed relay
	// orphans to the nearest live node.
	TreeRepair bool `json:"tree_repair,omitempty"`

	// Shards > 0 runs on the sharded engine over ShardCells partition
	// cells (default 8), on one goroutine; the value is not a worker count.
	Shards     int `json:"shards,omitempty"`
	ShardCells int `json:"shard_cells,omitempty"`

	// Audit runs under the runtime invariant auditor, sweeping at
	// AuditCadence (0 = auditor default). Composes with Shards: a sharded
	// run audits at its window barriers. AuditSelfTest names a deliberate
	// corruption (see cdn.AuditOptions.SelfTest) injected mid-run to prove
	// the tripwire fires — a run carrying it must FAIL. Both require Audit.
	Audit         bool     `json:"audit,omitempty"`
	AuditCadence  Duration `json:"audit_cadence,omitempty"`
	AuditSelfTest string   `json:"audit_self_test,omitempty"`

	// bundle is the resolved Import, attached by LoadFile or
	// SetImportBundle. It never marshals: a plan file stays a pointer to
	// the import, not a copy of it.
	bundle *traceimport.Bundle
}

// importExclusions is the one table of scenario fields an import cannot be
// combined with: the bundle supplies the topology, TTLs, update workload,
// population and fault windows, and an imported replay runs serially with
// every user pinned to its home server (so neither per-visit switching nor
// DNS routing).
var importExclusions = []struct {
	field string
	set   func(*Scenario) bool
}{
	{"servers", func(s *Scenario) bool { return s.Servers != 0 }},
	{"users_per_server", func(s *Scenario) bool { return s.UsersPerServer != nil }},
	{"server_ttl", func(s *Scenario) bool { return s.ServerTTL != 0 }},
	{"user_ttl", func(s *Scenario) bool { return s.UserTTL != 0 }},
	{"update_size_kb", func(s *Scenario) bool { return s.UpdateSizeKB != 0 }},
	{"game", func(s *Scenario) bool { return s.Game != nil }},
	{"user_switch", func(s *Scenario) bool { return s.UserSwitch }},
	{"dns_resolver_ttl", func(s *Scenario) bool { return s.DNSResolverTTL != 0 }},
	{"population", func(s *Scenario) bool { return s.Population != nil }},
	{"population_gen", func(s *Scenario) bool { return s.PopulationGen != nil }},
	{"federation", func(s *Scenario) bool { return s.Federation != nil }},
	{"fault_scenario", func(s *Scenario) bool { return s.FaultScenario != "" }},
	{"faults", func(s *Scenario) bool { return s.Faults != nil }},
	{"shards", func(s *Scenario) bool { return s.Shards != 0 }},
	{"shard_cells", func(s *Scenario) bool { return s.ShardCells != 0 }},
}

// ImportExclusions lists, by JSON name, the scenario fields that are
// rejected alongside an import.
func ImportExclusions() []string {
	names := make([]string, len(importExclusions))
	for i, x := range importExclusions {
		names[i] = x.field
	}
	return names
}

// SetImportBundle attaches a resolved import bundle to the scenario, the
// hook LoadFile uses after reading Import's file. Callers constructing
// scenarios in memory can use it to skip the file round trip.
func (s *Scenario) SetImportBundle(b *traceimport.Bundle) { s.bundle = b }

// ImportBundle returns the resolved import bundle, or nil when the scenario
// has no import (or its import was never resolved).
func (s *Scenario) ImportBundle() *traceimport.Bundle { return s.bundle }

// EffectiveServerTTL is the server TTL the run uses: the scenario's, the
// imported bundle's, or the simulation default when unset. Assertions with
// a ttl_mult resolve against it.
func (s *Scenario) EffectiveServerTTL() time.Duration {
	if s.ServerTTL > 0 {
		return s.ServerTTL.D()
	}
	if s.bundle != nil {
		return s.bundle.Summary.ServerTTL.D()
	}
	return cdn.DefaultServerTTL
}

// Validate checks the scenario for every system it will run: first the
// rules among the scenario's own fields, then each system's compiled
// configuration against the cdn rules (core.Validate). It reads no files
// and materializes no topology, schedule or generated population.
func (s *Scenario) Validate(systems ...core.System) error {
	if s.Import != "" {
		for _, x := range importExclusions {
			if x.set(s) {
				return fmt.Errorf("import and %s are mutually exclusive (the imported bundle fixes the deployment)", x.field)
			}
		}
	}
	if s.Game != nil {
		if len(s.Game.Phases) == 0 {
			return fmt.Errorf("game has no phases")
		}
		publishes := false
		names := make([]string, len(s.Game.Phases))
		for i, ph := range s.Game.Phases {
			if ph.Duration <= 0 {
				return fmt.Errorf("game phase %d has non-positive duration", i)
			}
			if ph.MeanGap < 0 {
				return fmt.Errorf("game phase %d has negative mean gap", i)
			}
			publishes = publishes || ph.MeanGap > 0
			names[i] = ph.Name
		}
		if s.Game.SizeKB < 0 || s.Game.MinGap < 0 {
			return fmt.Errorf("negative game size_kb or min_gap")
		}
		if !publishes {
			// Every cell would fail at run time with "draws no updates".
			return fmt.Errorf("game [%s] never publishes: every phase has mean_gap 0", strings.Join(names, " "))
		}
	}
	if s.Population != nil && s.PopulationGen != nil {
		return fmt.Errorf("population and population_gen are mutually exclusive")
	}
	if g := s.PopulationGen; g != nil {
		if g.TotalUsers <= 0 {
			return fmt.Errorf("population_gen.total_users must be > 0, got %d", g.TotalUsers)
		}
		if g.CohortsPerServer < 0 || g.Period < 0 || g.SpreadMax < 0 {
			return fmt.Errorf("negative population_gen field")
		}
	}
	if s.FaultScenario != "" && s.Faults != nil {
		return fmt.Errorf("fault_scenario and faults are mutually exclusive")
	}
	if !s.Audit && s.AuditSelfTest != "" {
		return fmt.Errorf("audit_self_test requires audit")
	}
	if !s.Audit && s.AuditCadence != 0 {
		return fmt.Errorf("audit_cadence requires audit")
	}
	if !(s.UplinkKBps >= 0) || s.DNSResolverTTL < 0 {
		return fmt.Errorf("negative uplink_kbps or dns_resolver_ttl")
	}
	opts, err := s.fieldOptions()
	if err != nil {
		return err
	}
	if pop := s.Population; pop != nil || s.PopulationGen != nil || s.Import != "" {
		if pop == nil {
			// A generated or imported population exists only at run time;
			// a one-server stand-in lets the user-model rules see it.
			pop = &workload.Population{Servers: make([][]workload.CohortSpec, 1)}
		}
		opts = append(opts, core.WithPopulation(pop))
	}
	for _, sys := range systems {
		if err := core.Validate(sys, opts...); err != nil {
			return err
		}
	}
	return nil
}

// Options compiles the scenario into the core options of one run at seed:
// the imported deployment, the drawn schedule and population, then every
// field Validate checks.
func (s *Scenario) Options(seed int64) ([]core.Option, error) {
	opts := []core.Option{core.WithSeed(seed)}
	if s.Import != "" {
		if s.bundle == nil {
			return nil, fmt.Errorf("import %q was not resolved (load the plan with LoadFile or attach a bundle with SetImportBundle)", s.Import)
		}
		// Materialized per run: the topology must not be shared across
		// concurrent runs.
		bopts, err := s.bundle.Options()
		if err != nil {
			return nil, err
		}
		opts = append(opts, bopts...)
	}
	if s.Game != nil {
		opts = append(opts, core.WithGame(s.Game.Config()))
	}
	pop, err := s.population(seed)
	if err != nil {
		return nil, err
	}
	if pop != nil {
		opts = append(opts, core.WithPopulation(pop))
	}
	fopts, err := s.fieldOptions()
	if err != nil {
		return nil, err
	}
	return append(opts, fopts...), nil
}

// fieldOptions compiles the scenario fields that cost nothing to build.
// Zero fields are left out, so the run keeps its defaults.
func (s *Scenario) fieldOptions() ([]core.Option, error) {
	var opts []core.Option
	add := func(set bool, o core.Option) {
		if set {
			opts = append(opts, o)
		}
	}
	add(s.Servers != 0, core.WithServers(s.Servers))
	if s.UsersPerServer != nil {
		opts = append(opts, core.WithUsersPerServer(*s.UsersPerServer))
	}
	add(s.Clusters != 0, core.WithClusters(s.Clusters))
	add(s.TreeDegree != 0, core.WithTreeDegree(s.TreeDegree))
	add(s.SupernodeDegree != 0, core.WithSupernodeDegree(s.SupernodeDegree))
	add(s.UplinkKBps != 0 || s.DisableQueuing,
		core.WithNetConfig(netmodel.Config{DefaultUplinkKBps: s.UplinkKBps, DisableQueuing: s.DisableQueuing}))
	add(s.ServerTTL != 0, core.WithServerTTL(s.ServerTTL.D()))
	add(s.UserTTL != 0, core.WithUserTTL(s.UserTTL.D()))
	add(s.UpdateSizeKB != 0, core.WithUpdateSizeKB(s.UpdateSizeKB))
	add(s.UserModel != "", core.WithUserModel(s.UserModel))
	add(s.UserSwitch, core.WithUserSwitching())
	add(s.DNSResolverTTL > 0, core.WithDNSRouting(s.DNSResolverTTL.D()))
	add(s.VisitAccounting, core.WithVisitAccounting())
	if s.Federation != nil {
		opts = append(opts, core.WithFederation(*s.Federation))
	}
	if s.Faults != nil {
		opts = append(opts, core.WithFaults(*s.Faults))
	}
	if s.FaultScenario != "" {
		spec, err := fault.Scenario(s.FaultScenario)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithFaults(spec))
	}
	add(s.Failover, core.WithFailover())
	add(s.TreeRepair, core.WithTreeRepair())
	add(s.Shards != 0, core.WithShards(s.Shards))
	add(s.ShardCells != 0, core.WithShardCells(s.ShardCells))
	if s.Audit {
		opts = append(opts, core.WithAudit(s.AuditCadence.D()))
		add(s.AuditSelfTest != "", core.WithAuditSelfTest(s.AuditSelfTest))
	}
	return opts, nil
}

// population returns the run's pinned population: the inline spec, or a
// generator draw seeded by the run (so multi-seed plans draw fresh
// populations) unless the generator pins its own seed.
func (s *Scenario) population(seed int64) (*workload.Population, error) {
	g := s.PopulationGen
	if g == nil {
		return s.Population, nil
	}
	return workload.GeneratePopulation(workload.PopulationConfig{
		Servers:          cmp.Or(s.Servers, core.DefaultServers),
		TotalUsers:       g.TotalUsers,
		Alpha:            g.Alpha,
		CohortsPerServer: g.CohortsPerServer,
		Period:           g.Period.D(),
		SpreadMax:        g.SpreadMax.D(),
		Seed:             cmp.Or(g.Seed, seed),
	})
}
