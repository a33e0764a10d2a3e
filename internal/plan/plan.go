// Package plan turns the simulator's scattered configuration surface into
// declarative scenario plans with enforceable SLO assertions.
//
// One Plan is a full scenario: which systems to run (update method x update
// infrastructure), over which topology, workload, and population, under which
// fault scenario, on which engine (serial or sharded, audited or not) — plus
// a list of assertions over the run's metrics ("p99 user inconsistency stays
// under 2x the server TTL", "zero audit violations", "provider traffic within
// budget") and optional cross-run equivalence checks (worker-count invariance
// of the sharded engine, cohort-vs-explicit user-model equality).
//
// A Plan expands into a matrix of cells (systems x seeds); each cell is one
// deterministic simulation whose extracted metrics are judged against the
// plan's assertions. A directory of plans is a catalog — the simulation-side
// analogue of a CDN's consistency-SLO regression suite: CI runs the catalog
// as acceptance tests and fails on the first broken SLO.
//
// Parsing follows the same strict-decoder discipline as internal/fault and
// internal/workload: unknown fields, trailing data, and structurally invalid
// plans are errors, never panics — the parser is fuzzed on that contract.
package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/traceimport"
	"cdnconsistency/internal/workload"
)

// Duration aliases fault.Duration so plan files accept both "90s"-style
// strings and plain numbers of seconds.
type Duration = fault.Duration

// PhaseSpec is one workload phase: updates arrive with exponential gaps of
// MeanGap while it lasts; MeanGap 0 marks a silent break.
type PhaseSpec struct {
	Name     string   `json:"name,omitempty"`
	Duration Duration `json:"duration"`
	MeanGap  Duration `json:"mean_gap,omitempty"`
}

// GameSpec describes the publication workload (see workload.GameConfig).
type GameSpec struct {
	Phases []PhaseSpec `json:"phases"`
	SizeKB float64     `json:"size_kb,omitempty"`
	MinGap Duration    `json:"min_gap,omitempty"`
}

// Config converts the spec into the workload package's native form.
func (g *GameSpec) Config() workload.GameConfig {
	cfg := workload.GameConfig{SizeKB: g.SizeKB, MinGap: g.MinGap.D()}
	for _, p := range g.Phases {
		cfg.Phases = append(cfg.Phases, workload.Phase{
			Name: p.Name, Duration: p.Duration.D(), MeanGap: p.MeanGap.D(),
		})
	}
	return cfg
}

// PopulationGen draws a heavy-tailed population instead of spelling one out
// (see workload.GeneratePopulation). Servers comes from the plan topology;
// Seed 0 uses the cell's seed, so a multi-seed plan draws a fresh population
// per seed.
type PopulationGen struct {
	TotalUsers       int      `json:"total_users"`
	Alpha            float64  `json:"alpha,omitempty"`
	CohortsPerServer int      `json:"cohorts_per_server,omitempty"`
	Period           Duration `json:"period,omitempty"`
	SpreadMax        Duration `json:"spread_max,omitempty"`
	Seed             int64    `json:"seed,omitempty"`
}

// Assertion is one SLO threshold over a cell's extracted metrics. The
// threshold is Value + TTLMult x (server TTL in seconds), so SLOs like
// "p99 user inconsistency <= 2xTTL" stay correct when a plan retunes its TTL.
type Assertion struct {
	// Metric names one of the extracted run metrics (see MetricNames).
	Metric string `json:"metric"`
	// Op is one of <=, <, >=, >, ==, !=.
	Op string `json:"op"`
	// Value is the constant part of the threshold.
	Value float64 `json:"value,omitempty"`
	// TTLMult adds that many server-TTL-seconds to the threshold.
	TTLMult float64 `json:"ttl_mult,omitempty"`
}

// Equivalence check names accepted in Plan.Equivalence.
const (
	// EquivShardWorkers re-runs the cell at a different sharded worker
	// count and requires every metric to match exactly — the engine's
	// "results are a pure function of (seed, partition)" contract.
	EquivShardWorkers = "shard_workers"
	// EquivCohortExplicit re-runs the cell under the explicit per-user
	// model and requires the aggregates to match the cohort model's
	// (exactly for counters, within float-sum noise for means).
	EquivCohortExplicit = "cohort_explicit"
)

// Plan is one declarative scenario with assertions. The zero value is
// invalid; plans come from ParsePlan.
type Plan struct {
	// Name identifies the plan in cell ids, reports, and checkpoints.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Systems lists the systems to run: a named system from the paper's
	// comparison (Push, Invalidation, TTL, Self, Hybrid, HAT) or an
	// explicit "Method/Infra" pair (e.g. "TTL/Multicast"). Each system is
	// one matrix axis entry.
	Systems []string `json:"systems"`

	// Import replays an inferred deployment (internal/traceimport): the
	// path — relative to the plan file's directory — of a bundle JSON, a
	// JSONL crawl trace, or a "#cdnlog" access log. The bundle supplies
	// the topology, TTLs, update workload, user population, and fault
	// windows, so Import is mutually exclusive with the plan fields it
	// replaces (servers, TTLs, game, population, faults, federation,
	// shards). The file is resolved by LoadFile, never by Validate, which
	// keeps plan parsing free of file IO.
	Import string `json:"import,omitempty"`
	// Seeds is the second matrix axis; default [1].
	Seeds []int64 `json:"seeds,omitempty"`

	// Topology. Zero fields keep the simulation defaults (170 servers,
	// 5 users per server, 20 clusters).
	Servers         int `json:"servers,omitempty"`
	UsersPerServer  int `json:"users_per_server,omitempty"`
	Clusters        int `json:"clusters,omitempty"`
	TreeDegree      int `json:"tree_degree,omitempty"`
	SupernodeDegree int `json:"supernode_degree,omitempty"`

	// Protocol parameters. Zero keeps the defaults (60s server TTL, 10s
	// user TTL, 1 KB updates).
	ServerTTL    Duration `json:"server_ttl,omitempty"`
	UserTTL      Duration `json:"user_ttl,omitempty"`
	UpdateSizeKB float64  `json:"update_size_kb,omitempty"`

	// Game replaces the default publication workload (the paper's trace
	// day) with an explicit phase list.
	Game *GameSpec `json:"game,omitempty"`

	// UserModel selects the end-user simulation model: "" or "explicit"
	// (one actor per user) or "cohort" (weighted per-server cohorts;
	// requires Population or PopulationGen).
	UserModel string `json:"user_model,omitempty"`
	// Population pins the user population explicitly; PopulationGen draws
	// one. At most one of the two may be set.
	Population    *workload.Population `json:"population,omitempty"`
	PopulationGen *PopulationGen       `json:"population_gen,omitempty"`

	// Federation runs every cell against a multi-CDN federation: provider
	// origins with distinct TTLs and propagation lags, anycast homing,
	// peering hand-off, an optional meta-CDN broker, and serve-stale
	// degradation (see internal/federation). The federation layer is
	// serial-only: mutually exclusive with Shards.
	Federation *federation.Spec `json:"federation,omitempty"`

	// FaultScenario names a built-in fault scenario (fault.ScenarioNames);
	// Faults spells one out inline. At most one of the two may be set.
	FaultScenario string      `json:"fault_scenario,omitempty"`
	Faults        *fault.Spec `json:"faults,omitempty"`
	// Failover enables the failure-aware protocol reactions.
	Failover bool `json:"failover,omitempty"`

	// Shards > 0 runs cells on the sharded multi-core engine with that
	// many workers over ShardCells partition cells (default 8).
	Shards     int `json:"shards,omitempty"`
	ShardCells int `json:"shard_cells,omitempty"`

	// Audit runs every cell under the runtime invariant auditor, sweeping
	// at AuditCadence (0 = auditor default). Composes with Shards: a
	// sharded run audits at its window barriers. AuditSelfTest names a
	// deliberate corruption (see cdn.AuditOptions.SelfTest) injected
	// mid-run to prove the tripwire fires — a plan carrying it must FAIL.
	Audit         bool     `json:"audit,omitempty"`
	AuditCadence  Duration `json:"audit_cadence,omitempty"`
	AuditSelfTest string   `json:"audit_self_test,omitempty"`

	// Assert lists the SLO assertions every cell must satisfy.
	Assert []Assertion `json:"assert"`
	// Equivalence lists cross-run checks (EquivShardWorkers,
	// EquivCohortExplicit) every cell must satisfy.
	Equivalence []string `json:"equivalence,omitempty"`
	// Compare lists cross-system assertions, evaluated per seed once the
	// whole matrix has run (see EvalCompares): e.g. "HAT's provider load is
	// at most 0.5x Push's".
	Compare []Compare `json:"compare,omitempty"`

	// bundle is the resolved Import spec, loaded by LoadFile (or injected
	// by SetImportBundle). It never marshals: the plan file stays a
	// pointer to the import, not a copy of it.
	bundle *traceimport.Bundle
}

// SetImportBundle attaches a resolved import bundle to the plan, the hook
// LoadFile uses after reading Plan.Import's file. Callers constructing plans
// in memory can use it to skip the file round trip.
func (p *Plan) SetImportBundle(b *traceimport.Bundle) { p.bundle = b }

// ImportBundle returns the resolved import bundle, or nil when the plan has
// no import (or was parsed without LoadFile).
func (p *Plan) ImportBundle() *traceimport.Bundle { return p.bundle }

// Compare is one cross-system SLO: it relates the same metric extracted from
// two of the plan's systems at the same seed — Left Op Factor x Right. Both
// sides must name entries of Plan.Systems; Factor 0 means 1 (and an explicit
// zero threshold is spelled with op against factor 0 on the right, e.g.
// "Push degraded_seconds <= 0 x TTL's").
type Compare struct {
	// Metric names one of the extracted run metrics (see MetricNames).
	Metric string `json:"metric"`
	// Left and Right are system labels from the plan's Systems list.
	Left  string `json:"left"`
	Right string `json:"right"`
	// Op is one of <=, <, >=, >, ==, !=.
	Op string `json:"op"`
	// Factor scales the right side before comparing; 0 means 1.
	Factor *float64 `json:"factor,omitempty"`
}

// nameRE bounds plan names to id-safe characters (they appear in cell ids,
// junit testcase names, and checkpoint fingerprints).
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// validOps are the accepted assertion comparison operators.
var validOps = map[string]bool{"<=": true, "<": true, ">=": true, ">": true, "==": true, "!=": true}

// ParsePlan decodes and validates a JSON plan. Parsing is strict: unknown
// fields, trailing data, and structurally invalid plans are errors, never
// panics — FuzzParsePlan locks that contract.
func ParsePlan(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("plan: parse: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("plan: parse: trailing data after plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Marshal serializes the plan as indented JSON, the inverse of ParsePlan:
// ParsePlan(Marshal(p)) reproduces p exactly.
func (p *Plan) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Validate checks structural soundness without running anything: resolvable
// systems, known metrics and operators, consistent model/fault/engine
// combinations. It mirrors the up-front rejections the cdn layer would make
// run by run, so a broken plan fails at load time, not mid-matrix.
func (p *Plan) Validate() error {
	if !nameRE.MatchString(p.Name) {
		return fmt.Errorf("plan: name %q must match %s", p.Name, nameRE)
	}
	if len(p.Systems) == 0 {
		return fmt.Errorf("plan %s: no systems", p.Name)
	}
	seen := map[string]bool{}
	for _, s := range p.Systems {
		if _, err := core.ParseSystem(s); err != nil {
			return fmt.Errorf("plan %s: %w", p.Name, err)
		}
		if seen[s] {
			return fmt.Errorf("plan %s: duplicate system %q", p.Name, s)
		}
		seen[s] = true
	}
	seenSeed := map[int64]bool{}
	for _, s := range p.Seeds {
		if seenSeed[s] {
			return fmt.Errorf("plan %s: duplicate seed %d", p.Name, s)
		}
		seenSeed[s] = true
	}
	for _, v := range []struct {
		name string
		val  int
	}{
		{"servers", p.Servers}, {"users_per_server", p.UsersPerServer},
		{"clusters", p.Clusters}, {"tree_degree", p.TreeDegree},
		{"supernode_degree", p.SupernodeDegree},
		{"shards", p.Shards}, {"shard_cells", p.ShardCells},
	} {
		if v.val < 0 {
			return fmt.Errorf("plan %s: negative %s %d", p.Name, v.name, v.val)
		}
	}
	for _, v := range []struct {
		name string
		val  Duration
	}{
		{"server_ttl", p.ServerTTL}, {"user_ttl", p.UserTTL},
		{"audit_cadence", p.AuditCadence},
	} {
		if v.val < 0 {
			return fmt.Errorf("plan %s: negative %s %v", p.Name, v.name, v.val.D())
		}
	}
	if p.UpdateSizeKB < 0 {
		return fmt.Errorf("plan %s: negative update_size_kb %v", p.Name, p.UpdateSizeKB)
	}
	if p.Game != nil {
		if len(p.Game.Phases) == 0 {
			return fmt.Errorf("plan %s: game has no phases", p.Name)
		}
		for i, ph := range p.Game.Phases {
			if ph.Duration <= 0 {
				return fmt.Errorf("plan %s: game phase %d has non-positive duration", p.Name, i)
			}
			if ph.MeanGap < 0 {
				return fmt.Errorf("plan %s: game phase %d has negative mean gap", p.Name, i)
			}
		}
		if p.Game.SizeKB < 0 || p.Game.MinGap < 0 {
			return fmt.Errorf("plan %s: negative game size_kb or min_gap", p.Name)
		}
	}
	switch p.UserModel {
	case "", "explicit", "cohort":
	default:
		return fmt.Errorf("plan %s: unknown user_model %q (want \"explicit\" or \"cohort\")", p.Name, p.UserModel)
	}
	if p.Import != "" {
		for _, c := range []struct {
			name string
			set  bool
		}{
			{"servers", p.Servers > 0},
			{"users_per_server", p.UsersPerServer > 0},
			{"server_ttl", p.ServerTTL > 0},
			{"user_ttl", p.UserTTL > 0},
			{"update_size_kb", p.UpdateSizeKB > 0},
			{"game", p.Game != nil},
			{"population", p.Population != nil},
			{"population_gen", p.PopulationGen != nil},
			{"fault_scenario", p.FaultScenario != ""},
			{"faults", p.Faults != nil},
			{"federation", p.Federation != nil},
			{"shards", p.Shards > 0},
		} {
			if c.set {
				return fmt.Errorf("plan %s: import and %s are mutually exclusive (the imported bundle supplies it)", p.Name, c.name)
			}
		}
	}
	if p.Population != nil && p.PopulationGen != nil {
		return fmt.Errorf("plan %s: population and population_gen are mutually exclusive", p.Name)
	}
	if p.UserModel == "cohort" && p.Population == nil && p.PopulationGen == nil && p.Import == "" {
		return fmt.Errorf("plan %s: user_model cohort requires population or population_gen", p.Name)
	}
	if p.Population != nil {
		if err := p.Population.Validate(); err != nil {
			return fmt.Errorf("plan %s: %w", p.Name, err)
		}
	}
	if g := p.PopulationGen; g != nil {
		if g.TotalUsers <= 0 {
			return fmt.Errorf("plan %s: population_gen.total_users must be > 0, got %d", p.Name, g.TotalUsers)
		}
		if g.CohortsPerServer < 0 || g.Period < 0 || g.SpreadMax < 0 {
			return fmt.Errorf("plan %s: negative population_gen field", p.Name)
		}
	}
	if p.FaultScenario != "" && p.Faults != nil {
		return fmt.Errorf("plan %s: fault_scenario and faults are mutually exclusive", p.Name)
	}
	if p.FaultScenario != "" {
		if _, err := fault.Scenario(p.FaultScenario); err != nil {
			return fmt.Errorf("plan %s: %w", p.Name, err)
		}
	}
	if p.Faults != nil {
		if err := p.Faults.Validate(); err != nil {
			return fmt.Errorf("plan %s: %w", p.Name, err)
		}
	}
	if p.AuditSelfTest != "" {
		if !p.Audit {
			return fmt.Errorf("plan %s: audit_self_test requires audit", p.Name)
		}
		if !cdn.ValidAuditSelfTest(p.AuditSelfTest) {
			return fmt.Errorf("plan %s: unknown audit_self_test %q (valid: %s)",
				p.Name, p.AuditSelfTest, strings.Join(cdn.AuditSelfTestNames(), ", "))
		}
	}
	if p.Federation != nil {
		if err := p.Federation.Validate(); err != nil {
			return fmt.Errorf("plan %s: %w", p.Name, err)
		}
		if p.Shards > 0 {
			return fmt.Errorf("plan %s: federation and shards are mutually exclusive (the federation layer is serial-only)", p.Name)
		}
	}
	if len(p.Assert) == 0 && len(p.Equivalence) == 0 && len(p.Compare) == 0 {
		return fmt.Errorf("plan %s: no assertions, equivalence checks, or compares — the plan would enforce nothing", p.Name)
	}
	for i, a := range p.Assert {
		if !knownMetric(a.Metric) {
			return fmt.Errorf("plan %s: assert[%d]: unknown metric %q (valid: %s)",
				p.Name, i, a.Metric, strings.Join(MetricNames(), ", "))
		}
		if !validOps[a.Op] {
			return fmt.Errorf("plan %s: assert[%d]: unknown op %q (valid: <=, <, >=, >, ==, !=)", p.Name, i, a.Op)
		}
		if a.TTLMult < 0 {
			return fmt.Errorf("plan %s: assert[%d]: negative ttl_mult %v", p.Name, i, a.TTLMult)
		}
	}
	for i, c := range p.Compare {
		if !knownMetric(c.Metric) {
			return fmt.Errorf("plan %s: compare[%d]: unknown metric %q (valid: %s)",
				p.Name, i, c.Metric, strings.Join(MetricNames(), ", "))
		}
		if !validOps[c.Op] {
			return fmt.Errorf("plan %s: compare[%d]: unknown op %q (valid: <=, <, >=, >, ==, !=)", p.Name, i, c.Op)
		}
		if !seen[c.Left] {
			return fmt.Errorf("plan %s: compare[%d]: left system %q is not in the plan's systems", p.Name, i, c.Left)
		}
		if !seen[c.Right] {
			return fmt.Errorf("plan %s: compare[%d]: right system %q is not in the plan's systems", p.Name, i, c.Right)
		}
		if c.Left == c.Right {
			return fmt.Errorf("plan %s: compare[%d]: left and right are both %q", p.Name, i, c.Left)
		}
		if c.Factor != nil && *c.Factor < 0 {
			return fmt.Errorf("plan %s: compare[%d]: negative factor %v", p.Name, i, *c.Factor)
		}
	}
	seenEq := map[string]bool{}
	for _, eq := range p.Equivalence {
		switch eq {
		case EquivShardWorkers:
			if p.Shards < 1 {
				return fmt.Errorf("plan %s: equivalence %q requires shards >= 1", p.Name, eq)
			}
		case EquivCohortExplicit:
			if p.UserModel != "cohort" {
				return fmt.Errorf("plan %s: equivalence %q requires user_model \"cohort\"", p.Name, eq)
			}
		default:
			return fmt.Errorf("plan %s: unknown equivalence check %q (valid: %s, %s)",
				p.Name, eq, EquivShardWorkers, EquivCohortExplicit)
		}
		if seenEq[eq] {
			return fmt.Errorf("plan %s: duplicate equivalence check %q", p.Name, eq)
		}
		seenEq[eq] = true
	}
	return nil
}

// EffectiveServerTTL is the server TTL assertions with a ttl_mult resolve
// against: the plan's, the imported bundle's, or the simulation default
// (60 s) when unset.
func (p *Plan) EffectiveServerTTL() time.Duration {
	if p.ServerTTL > 0 {
		return p.ServerTTL.D()
	}
	if p.bundle != nil {
		return p.bundle.Summary.ServerTTL.D()
	}
	return 60 * time.Second
}

// seeds returns the seed axis, defaulting to [1].
func (p *Plan) seeds() []int64 {
	if len(p.Seeds) == 0 {
		return []int64{1}
	}
	return p.Seeds
}
