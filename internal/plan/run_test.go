package plan

import (
	"context"
	"strings"
	"testing"
)

// tinyPlan parses a fast single-cell plan with the given extra JSON fields
// spliced in (assertions, equivalence, fault config...).
func tinyPlan(t *testing.T, extra string) *Plan {
	t.Helper()
	js := `{
	  "name": "tiny",
	  "systems": ["TTL"],
	  "servers": 12,
	  "users_per_server": 1,
	  "clusters": 3,
	  "server_ttl": "5s",
	  "user_ttl": "2s",
	  "game": {"phases": [{"name": "play", "duration": "90s", "mean_gap": "15s"}]},
	  ` + extra + `
	}`
	p, err := ParsePlan([]byte(js))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	return p
}

func runOne(t *testing.T, p *Plan) *CellResult {
	t.Helper()
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
	return r
}

func TestRunCellPassingAssertions(t *testing.T) {
	p := tinyPlan(t, `"assert": [
	  {"metric": "crashes", "op": "==", "value": 0},
	  {"metric": "user_observations", "op": ">", "value": 0},
	  {"metric": "p99_user_inconsistency", "op": "<=", "ttl_mult": 100}
	]`)
	r := runOne(t, p)
	if r.Failed() {
		t.Fatalf("cell failed:\n%s", r.Render())
	}
	if len(r.Checks) != 3 {
		t.Fatalf("got %d checks, want 3", len(r.Checks))
	}
	if r.Metrics["user_observations"] <= 0 {
		t.Errorf("no user observations recorded: %v", r.Metrics["user_observations"])
	}
	if r.Events == 0 {
		t.Error("no events recorded")
	}
	out := r.Render()
	if !strings.Contains(out, "== plan tiny/TTL/s1 ==") || strings.Contains(out, "FAIL") {
		t.Errorf("unexpected render:\n%s", out)
	}
}

// A plan whose game draws no publication fails its cell with an error naming
// the game, rather than passing on the numbers of the default day an empty
// schedule used to fall back to. A game with no publishing phase is rejected
// at load (TestParsePlanRejectsSilentGame); this one publishes on paper but
// its only phase is shorter than the 1 s minimum gap, so the draw is empty.
func TestRunCellSilentGameFails(t *testing.T) {
	p, err := ParsePlan([]byte(`{
	  "name": "silent",
	  "systems": ["TTL"],
	  "servers": 10,
	  "users_per_server": 1,
	  "game": {"phases": [{"name": "quiet", "duration": "1s", "mean_gap": "1m"}]},
	  "assert": [{"metric": "events", "op": ">=", "value": 0}]
	}`))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	r, err := RunCell(context.Background(), cells[0])
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if !r.Failed() || !strings.Contains(r.Err, "game [quiet]: draws no updates") {
		t.Errorf("silent game: failed=%v err=%q, want a failure naming the game", r.Failed(), r.Err)
	}
}

func TestRunCellFailingAssertionShowsGotValue(t *testing.T) {
	p := tinyPlan(t, `"assert": [{"metric": "user_observations", "op": "==", "value": -1}]`)
	r := runOne(t, p)
	if !r.Failed() {
		t.Fatal("impossible assertion passed")
	}
	detail := r.FailureDetail()
	if !strings.Contains(detail, "user_observations == -1") || !strings.Contains(detail, "got ") {
		t.Errorf("failure detail missing assertion or got-value: %q", detail)
	}
	if !strings.Contains(r.Render(), "FAIL\tuser_observations == -1") {
		t.Errorf("render missing FAIL line:\n%s", r.Render())
	}
}

func TestRunCellCohortExplicitEquivalence(t *testing.T) {
	p := tinyPlan(t, `"user_model": "cohort",
	  "population_gen": {"total_users": 24, "alpha": 1.2, "cohorts_per_server": 2},
	  "equivalence": ["cohort_explicit"],
	  "assert": [{"metric": "users", "op": "==", "value": 24}]`)
	r := runOne(t, p)
	if r.Failed() {
		t.Fatalf("cohort-explicit equivalence failed:\n%s", r.Render())
	}
}

func TestRunCellAudit(t *testing.T) {
	p := tinyPlan(t, `"audit": true,
	  "assert": [
	    {"metric": "audit_violations", "op": "==", "value": 0},
	    {"metric": "audit_checks", "op": ">=", "value": 1}
	  ]`)
	r := runOne(t, p)
	if r.Failed() {
		t.Fatalf("audit plan failed:\n%s", r.Render())
	}
}

func TestRunCellFaultScenario(t *testing.T) {
	p := tinyPlan(t, `"fault_scenario": "crash", "failover": true,
	  "assert": [
	    {"metric": "crashes", "op": ">", "value": 0},
	    {"metric": "failed_visit_frac", "op": "<=", "value": 1}
	  ]`)
	r := runOne(t, p)
	if r.Failed() {
		t.Fatalf("fault plan failed:\n%s", r.Render())
	}
}

func TestRunCellSimulationErrorRecorded(t *testing.T) {
	// A population must span the topology it runs on; validation builds no
	// topology, so the mismatch surfaces as a run error — recorded on the
	// cell, not returned.
	js := `{
	  "name": "bad",
	  "systems": ["TTL"],
	  "servers": 12,
	  "population": {"servers": [[{"count": 1}]]},
	  "game": {"phases": [{"name": "play", "duration": "30s", "mean_gap": "15s"}]},
	  "assert": [{"metric": "crashes", "op": "==", "value": 0}]
	}`
	p, err := ParsePlan([]byte(js))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	r, err := RunCell(context.Background(), cells[0])
	if err != nil {
		t.Fatalf("RunCell returned abort for a config error: %v", err)
	}
	if r.Err == "" || !r.Failed() {
		t.Fatalf("expected recorded error, got %+v", r)
	}
	if !strings.Contains(r.Render(), "ERROR\t") {
		t.Errorf("render missing ERROR line:\n%s", r.Render())
	}
}

func TestRunCellCancelAborts(t *testing.T) {
	p := tinyPlan(t, `"assert": [{"metric": "crashes", "op": "==", "value": 0}]`)
	cells, err := p.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := RunCell(ctx, cells[0])
	if err == nil {
		t.Fatalf("cancelled run returned a result: %+v", r)
	}
	if !isAbort(err) {
		t.Errorf("cancelled run error %v is not an abort", err)
	}
}

func TestRunCellDeterministic(t *testing.T) {
	p := tinyPlan(t, `"fault_scenario": "churn", "failover": true,
	  "assert": [{"metric": "user_observations", "op": ">", "value": 0}]`)
	a := runOne(t, p)
	b := runOne(t, p)
	if a.Render() != b.Render() {
		t.Errorf("renders differ:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s differs across identical runs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}
