package plan

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/tracegen"
	"cdnconsistency/internal/traceimport"
)

// writeImportFixtures generates a small trace, infers its bundle, and lays
// both out in a temp dir the way plans/ lays out plans/bundles/.
func writeImportFixtures(t *testing.T) (dir string, b *traceimport.Bundle) {
	t.Helper()
	res, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: 12, Seed: 21},
		Days:     1,
		Users:    10,
		Seed:     21,
	})
	if err != nil {
		t.Fatalf("tracegen.Generate: %v", err)
	}
	b, err = traceimport.Infer(res.Trace)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	dir = t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "bundles"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bundles", "smoke.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, b
}

func importPlanJSON(importPath string) string {
	return fmt.Sprintf(`{
  "name": "import-test",
  "systems": ["TTL"],
  "import": %q,
  "assert": [
    {"metric": "mean_user_inconsistency", "op": "<=", "ttl_mult": 2},
    {"metric": "users", "op": "==", "value": 10}
  ]
}`, importPath)
}

// TestPlanImportRuns loads a plan whose import points at a bundle relative
// to the plan file, runs one cell, and checks the assertions resolve against
// the bundle's TTL.
func TestPlanImportRuns(t *testing.T) {
	dir, b := writeImportFixtures(t)
	planPath := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(planPath, []byte(importPlanJSON("bundles/smoke.json")), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadFile(planPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if p.ImportBundle() == nil {
		t.Fatal("LoadFile did not resolve the import bundle")
	}
	if got, want := p.EffectiveServerTTL(), b.Summary.ServerTTL.D(); got != want {
		t.Errorf("EffectiveServerTTL = %v, want the bundle's %v", got, want)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if len(cells) != 1 {
		t.Fatalf("expected 1 cell, got %d", len(cells))
	}
	r, err := RunCell(context.Background(), cells[0])
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if r.Err != "" {
		t.Fatalf("cell errored: %s", r.Err)
	}
	for _, c := range r.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
}

// TestPlanImportDeterministic pins that an imported cell replays to
// identical metrics — the contract the import smoke script diffs on.
func TestPlanImportDeterministic(t *testing.T) {
	dir, _ := writeImportFixtures(t)
	planPath := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(planPath, []byte(importPlanJSON("bundles/smoke.json")), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadFile(planPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	first, err := RunCell(context.Background(), cells[0])
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	again, err := RunCell(context.Background(), cells[0])
	if err != nil {
		t.Fatalf("RunCell #2: %v", err)
	}
	if len(first.Metrics) == 0 {
		t.Fatal("no metrics extracted")
	}
	for k, v := range first.Metrics {
		if again.Metrics[k] != v {
			t.Errorf("metric %s: %v then %v across replays", k, v, again.Metrics[k])
		}
	}
}

// TestPlanImportExclusions checks every field the bundle supplies, and the
// engine and routing settings an imported replay cannot honour, are
// rejected alongside import, and that an unresolved import fails at run
// time with a pointed error.
func TestPlanImportExclusions(t *testing.T) {
	base := `{"name": "x", "systems": ["TTL"], "import": "b.json", %s "assert": [{"metric": "users", "op": ">=", "value": 0}]}`
	for _, field := range []string{
		`"servers": 10,`,
		`"users_per_server": 3,`,
		`"server_ttl": "30s",`,
		`"user_ttl": "5s",`,
		`"update_size_kb": 2,`,
		`"game": {"phases": [{"duration": "1m"}]},`,
		`"population": {"servers": [[{"count": 1}]]},`,
		`"population_gen": {"total_users": 5},`,
		`"fault_scenario": "single-crash",`,
		`"faults": {"crashes": [{"server": 0, "at": "10s"}]},`,
		`"federation": {"providers": [{"name": "a"}]},`,
		`"user_switch": true,`,
		`"dns_resolver_ttl": "20s",`,
	} {
		input := fmt.Sprintf(base, field)
		_, err := ParsePlan([]byte(input))
		if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
			t.Errorf("field %s alongside import: err = %v, want mutual-exclusion error", field, err)
		}
	}
	// user_model stays allowed: the bundle carries the population it needs.
	p, err := ParsePlan([]byte(fmt.Sprintf(base, `"user_model": "cohort",`)))
	if err != nil {
		t.Fatalf("user_model cohort alongside import rejected: %v", err)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if _, err := cells[0].run(context.Background(), p.Scenario); err == nil || !strings.Contains(err.Error(), "not resolved") {
		t.Errorf("run with unresolved import: err = %v, want a not-resolved error", err)
	}
	if got := p.EffectiveServerTTL(); got != 60*time.Second {
		t.Errorf("EffectiveServerTTL without a bundle = %v, want the 60s default", got)
	}
}
