// Package plan turns the simulator's scattered configuration surface into
// declarative scenario plans with enforceable SLO assertions.
//
// One Plan is a full scenario: which systems to run (update method x update
// infrastructure), over which topology, workload, and population, under which
// fault scenario, audited or not — plus a list of assertions over the run's
// metrics ("p99 user inconsistency stays under 2x the server TTL", "zero
// audit violations", "provider traffic within budget") and optional cross-run
// equivalence checks (weighted-vs-one-member cohort equality).
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

	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
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

// EquivCohortExplicit, the one equivalence check Plan.Equivalence accepts,
// re-runs the cell under the explicit model, one cohort per user, and
// requires the aggregates to match the weighted cohorts' (exactly for
// counters, within float-sum noise for means).
const EquivCohortExplicit = "cohort_explicit"

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

	// Seeds is the second matrix axis; default [1].
	Seeds []int64 `json:"seeds,omitempty"`

	// Scenario is what every cell runs against.
	Scenario

	// Assert lists the SLO assertions every cell must satisfy.
	Assert []Assertion `json:"assert"`
	// Equivalence lists cross-run checks (EquivCohortExplicit) every cell
	// must satisfy.
	Equivalence []string `json:"equivalence,omitempty"`
	// Compare lists cross-system assertions, evaluated per seed once the
	// whole matrix has run (see EvalCompares): e.g. "HAT's provider load is
	// at most 0.5x Push's".
	Compare []Compare `json:"compare,omitempty"`
}

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
	// An empty optional list means the same as an absent one; keep it nil so
	// that Marshal, which omits it, round-trips the plan exactly.
	if len(p.Seeds) == 0 {
		p.Seeds = nil
	}
	if len(p.Equivalence) == 0 {
		p.Equivalence = nil
	}
	if len(p.Compare) == 0 {
		p.Compare = nil
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
// systems, known metrics and operators, and the scenario against every
// system (Scenario.Validate, which defers to the cdn rules), so a broken
// plan fails at load time, not mid-matrix.
func (p *Plan) Validate() error {
	if !nameRE.MatchString(p.Name) {
		return fmt.Errorf("plan: name %q must match %s", p.Name, nameRE)
	}
	if len(p.Systems) == 0 {
		return fmt.Errorf("plan %s: no systems", p.Name)
	}
	seen := map[string]bool{}
	systems := make([]core.System, 0, len(p.Systems))
	for _, s := range p.Systems {
		sys, err := core.ParseSystem(s)
		if err != nil {
			return fmt.Errorf("plan %s: %w", p.Name, err)
		}
		if seen[s] {
			return fmt.Errorf("plan %s: duplicate system %q", p.Name, s)
		}
		seen[s] = true
		systems = append(systems, sys)
	}
	seenSeed := map[int64]bool{}
	for _, s := range p.Seeds {
		if seenSeed[s] {
			return fmt.Errorf("plan %s: duplicate seed %d", p.Name, s)
		}
		seenSeed[s] = true
	}
	if err := p.Scenario.Validate(systems...); err != nil {
		return fmt.Errorf("plan %s: %w", p.Name, err)
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
		case EquivCohortExplicit:
			if p.UserModel != "cohort" {
				return fmt.Errorf("plan %s: equivalence %q requires user_model \"cohort\"", p.Name, eq)
			}
		default:
			return fmt.Errorf("plan %s: unknown equivalence check %q (valid: %s)",
				p.Name, eq, EquivCohortExplicit)
		}
		if seenEq[eq] {
			return fmt.Errorf("plan %s: duplicate equivalence check %q", p.Name, eq)
		}
		seenEq[eq] = true
	}
	return nil
}

// seeds returns the seed axis, defaulting to [1].
func (p *Plan) seeds() []int64 {
	if len(p.Seeds) == 0 {
		return []int64{1}
	}
	return p.Seeds
}
