package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
	"cdnconsistency/internal/traceimport"
)

func runCLI(t *testing.T, args []string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(context.Background(), args, &buf)
	return buf.String(), err
}

func small(extra ...string) []string {
	return append([]string{"-servers", "25", "-users", "2", "-clusters", "5"}, extra...)
}

func TestRunNamedSystem(t *testing.T) {
	out, err := runCLI(t, small("-system", "HAT"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"system\tHAT", "supernodes", "server_inconsistency_s", "traffic_update"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMethodInfraCombos(t *testing.T) {
	combos := [][2]string{
		{"TTL", "Unicast"}, {"Push", "Multicast"}, {"Invalidation", "Unicast"},
		{"Self", "Hybrid"}, {"AdaptiveTTL", "Unicast"},
	}
	for _, c := range combos {
		out, err := runCLI(t, small("-method", c[0], "-infra", c[1]))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !strings.Contains(out, "update_msgs_to_servers") {
			t.Errorf("%v: missing metrics", c)
		}
	}
}

func TestRunSwitchScenario(t *testing.T) {
	out, err := runCLI(t, small("-system", "TTL", "-switch"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "user_inconsistent_observation_frac") {
		t.Error("missing observation metric")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-system", "NotASystem"},
		{"-method", "NotAMethod"},
		{"-infra", "NotAnInfra"},
		{"-servers", "0"},
		{"-users", "0"},
		{"-badflag"},
		{"-timeout", "-1s"},
		{"-audit-cadence", "-1s"},
		{"-audit", "-audit-cadence", "-1s"},
		{"-federation", "0"},
		{"-federation", "x"},
		{"-federation", "@no-such-file.json"},
		{"-federation", "3", "-shards", "2"},
		{"-updatekb", "NaN"},
		{"-updatekb", "Inf"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunFederation(t *testing.T) {
	out, err := runCLI(t, small("-system", "TTL", "-federation", "3",
		"-faults", "provider-storm", "-failover"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"federation\t", "degraded_s=", "stranded=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFederationSpecFile(t *testing.T) {
	spec := `{"providers": [
	  {"name": "a", "lat": 33.7, "lon": -84.4, "ttl": "10s"},
	  {"name": "b", "lat": 50.1, "lon": 8.7, "ttl": "30s", "propagation": "5s"}
	], "broker": {"period": "20s", "hysteresis": 0.2, "min_dwell": "1m"}}`
	path := filepath.Join(t.TempDir(), "providers.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, small("-system", "Invalidation", "-federation", "@"+path,
		"-faults", "broker-flap", "-failover"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "switches=") {
		t.Errorf("output missing federation switch counter:\n%s", out)
	}
}

func TestRunExtensionMethods(t *testing.T) {
	combos := [][2]string{
		{"Lease", "Unicast"}, {"Regime", "Unicast"}, {"Push", "Broadcast"},
	}
	for _, c := range combos {
		out, err := runCLI(t, small("-method", c[0], "-infra", c[1]))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !strings.Contains(out, "update_msgs_to_servers") {
			t.Errorf("%v: missing metrics", c)
		}
	}
	// Invalid pairings surface as errors.
	if _, err := runCLI(t, small("-method", "Lease", "-infra", "Multicast")); err == nil {
		t.Error("Lease/Multicast accepted")
	}
}

// -audit runs the whole simulation under the invariant auditor; a healthy
// run (even with faults and failover) prints the same metrics it would
// without it.
func TestRunWithAudit(t *testing.T) {
	plain, err := runCLI(t, small("-system", "HAT"))
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	audited, err := runCLI(t, small("-system", "HAT", "-audit", "-audit-cadence", "5s"))
	if err != nil {
		t.Fatalf("audited run: %v", err)
	}
	// The auditor adds engine events, so the trailing events line differs;
	// everything above it must be identical.
	trim := func(s string) string {
		i := strings.LastIndex(s, "events\t")
		if i < 0 {
			t.Fatalf("no events line in:\n%s", s)
		}
		return s[:i]
	}
	if trim(plain) != trim(audited) {
		t.Errorf("auditing changed the metrics:\n--- plain ---\n%s--- audited ---\n%s", plain, audited)
	}
	if _, err := runCLI(t, small("-system", "TTL", "-faults", "mixed", "-failover", "-audit")); err != nil {
		t.Errorf("audited faulty run reported a violation: %v", err)
	}
}

// A cancelled context aborts the run instead of printing partial metrics.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, small("-system", "TTL"), &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Errorf("cancelled run printed output:\n%s", buf.String())
	}
}

// TestRunPlan runs a tiny inline plan and the committed import-replay plan,
// which replays plans/bundles/smoke.json and pins its fault windows.
func TestRunPlan(t *testing.T) {
	tiny := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(tiny, []byte(`{
	  "name": "tiny",
	  "systems": ["TTL", "HAT"],
	  "servers": 12,
	  "users_per_server": 1,
	  "clusters": 3,
	  "server_ttl": "5s",
	  "game": {"phases": [{"name": "play", "duration": "90s", "mean_gap": "15s"}]},
	  "assert": [{"metric": "user_observations", "op": ">", "value": 0}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		want []string
	}{
		{tiny, []string{
			"== plan tiny/TTL/s1 ==", "== plan tiny/HAT/s1 ==",
			"PASS\tuser_observations > 0",
			"metric\tp99_user_inconsistency",
			"metric\tprovider_km_kb",
		}},
		{filepath.Join("..", "..", "plans", "40-import-replay.json"), []string{
			"== plan import-replay/TTL/s1 ==", "== plan import-replay/HAT/s1 ==",
			"PASS\tcrashes == 11",
			"PASS\taudit_violations == 0",
		}},
	} {
		out, err := runCLI(t, []string{"-plan", tc.path})
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output missing %q:\n%s", tc.path, want, out)
			}
		}
	}
}

func TestRunPlanFailingExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := os.WriteFile(path, []byte(`{
	  "name": "doomed",
	  "systems": ["TTL"],
	  "servers": 12,
	  "users_per_server": 1,
	  "clusters": 3,
	  "game": {"phases": [{"name": "play", "duration": "90s", "mean_gap": "15s"}]},
	  "assert": [{"metric": "user_observations", "op": "<", "value": 0}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, []string{"-plan", path})
	if err == nil || !strings.Contains(err.Error(), "1 of 1 plan cells failed") {
		t.Fatalf("failing plan did not fail the run: %v", err)
	}
	if !strings.Contains(out, "FAIL\tuser_observations < 0") {
		t.Errorf("output missing FAIL line:\n%s", out)
	}
}

// writeImportTrace writes a small generated crawl trace for -import tests.
func writeImportTrace(t *testing.T) string {
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
	var buf bytes.Buffer
	if err := trace.Write(&buf, res.Trace); err != nil {
		t.Fatalf("trace.Write: %v", err)
	}
	path := filepath.Join(t.TempDir(), "crawl.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunImport(t *testing.T) {
	path := writeImportTrace(t)
	out, err := runCLI(t, []string{"-system", "TTL", "-import", path, "-clusters", "4"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"import\t" + path, "format=jsonl", "servers=12", "users=10",
		"system\tTTL", "server_inconsistency_s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The replay is deterministic: a second identical invocation prints
	// identical bytes — the import smoke test's diff contract.
	again, err := runCLI(t, []string{"-system", "TTL", "-import", path, "-clusters", "4"})
	if err != nil {
		t.Fatalf("run #2: %v", err)
	}
	if out != again {
		t.Errorf("imported replay output differs across runs:\n%s\nvs\n%s", out, again)
	}
	// The raw trace replays exactly as its pre-inferred bundle does; only
	// the header line naming the input differs.
	b, _, err := traceimport.LoadAny(path)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	bundlePath := filepath.Join(t.TempDir(), "bundle.json")
	if err := os.WriteFile(bundlePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromBundle, err := runCLI(t, []string{"-system", "TTL", "-import", bundlePath, "-clusters", "4"})
	if err != nil {
		t.Fatalf("run on bundle: %v", err)
	}
	if !strings.Contains(fromBundle, "format=bundle") {
		t.Errorf("bundle input not read as a bundle:\n%s", fromBundle)
	}
	body := func(s string) string { return s[strings.IndexByte(s, '\n')+1:] }
	if body(out) != body(fromBundle) {
		t.Errorf("raw trace and its bundle replay differently:\n--- trace ---\n%s--- bundle ---\n%s", out, fromBundle)
	}
}

func TestRunImportRejectsConflicts(t *testing.T) {
	path := writeImportTrace(t)
	cases := [][]string{
		{"-import", path, "-servers", "10"},
		{"-import", path, "-serverttl", "30s"},
		{"-import", path, "-faults", "churn"},
		{"-import", path, "-federation", "3"},
		{"-import", path, "-shards", "2"},
		{"-import", path, "-switch"},
		{"-import", path, "-plan", "x.json"},
		{"-import", filepath.Join(t.TempDir(), "missing.jsonl")},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// A plan carries its own systems, seeds and scenario, so every simulation
// flag set alongside -plan is rejected in one error rather than ignored.
func TestRunPlanRejectsScenarioFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, []byte(`{"name": "p", "systems": ["TTL"],
	  "assert": [{"metric": "users", "op": ">=", "value": 0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-servers", "10"},
		{"-seed", "2"},
		{"-system", "HAT"},
		{"-audit", "-shards", "2"},
	} {
		_, err := runCLI(t, append([]string{"-plan", path}, extra...))
		if err == nil || !strings.Contains(err.Error(), "drop -") {
			t.Errorf("-plan with %v: err = %v, want a scenario-flag rejection", extra, err)
		}
	}
	_, err := runCLI(t, []string{"-plan", path, "-audit", "-servers", "10"})
	if err == nil || !strings.Contains(err.Error(), "drop -audit, -servers") {
		t.Errorf("-plan with two scenario flags: err = %v, want both named in one error", err)
	}
}

// TestImportExclusionTable walks the one import-exclusion table and requires
// both a plan and cdnsim to reject every entry alongside an import.
func TestImportExclusionTable(t *testing.T) {
	dir := t.TempDir()
	popPath := filepath.Join(dir, "pop.json")
	faultsPath := filepath.Join(dir, "faults.json")
	for path, data := range map[string]string{
		popPath:    `{"servers": [[{"count": 1}]]}`,
		faultsPath: `{"crashes": [{"server": 0, "at": "10s"}]}`,
	} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Each entry: a plan snippet setting the field, and the cdnsim flags
	// that fill it (nil where cdnsim has no flag for the field).
	setBy := map[string]struct {
		json string
		args []string
	}{
		"servers":          {`"servers": 10`, []string{"-servers", "10"}},
		"users_per_server": {`"users_per_server": 3`, []string{"-users", "3"}},
		"server_ttl":       {`"server_ttl": "30s"`, []string{"-serverttl", "30s"}},
		"user_ttl":         {`"user_ttl": "5s"`, []string{"-userttl", "5s"}},
		"update_size_kb":   {`"update_size_kb": 2`, []string{"-updatekb", "2"}},
		"game":             {`"game": {"phases": [{"duration": "1m"}]}`, nil},
		"user_switch":      {`"user_switch": true`, []string{"-switch"}},
		"dns_resolver_ttl": {`"dns_resolver_ttl": "20s"`, nil},
		"population":       {`"population": {"servers": [[{"count": 1}]]}`, []string{"-population", "@" + popPath}},
		"population_gen":   {`"population_gen": {"total_users": 5}`, []string{"-cohorts", "4"}},
		"federation":       {`"federation": {"providers": [{"name": "a"}]}`, []string{"-federation", "3"}},
		"fault_scenario":   {`"fault_scenario": "churn"`, []string{"-faults", "churn"}},
		"faults":           {`"faults": {"crashes": [{"server": 0, "at": "10s"}]}`, []string{"-faults", "@" + faultsPath}},
		"shards":           {`"shards": 2`, []string{"-shards", "2"}},
		"shard_cells":      {`"shard_cells": 4`, []string{"-shardcells", "4"}},
	}
	trace := writeImportTrace(t)
	fields := plan.ImportExclusions()
	if len(fields) != len(setBy) {
		t.Errorf("exclusion table has %d entries, this test covers %d", len(fields), len(setBy))
	}
	for _, field := range fields {
		c, ok := setBy[field]
		if !ok {
			t.Errorf("exclusion %q has no test case", field)
			continue
		}
		_, err := plan.ParsePlan([]byte(`{"name": "x", "systems": ["TTL"], "import": "b.json", ` + c.json +
			`, "assert": [{"metric": "users", "op": ">=", "value": 0}]}`))
		if err == nil || !strings.Contains(err.Error(), "import and "+field+" are mutually exclusive") {
			t.Errorf("plan with import and %s: err = %v, want the exclusion", field, err)
		}
		if c.args == nil {
			continue
		}
		_, err = runCLI(t, append([]string{"-system", "TTL", "-import", trace}, c.args...))
		if err == nil || !strings.Contains(err.Error(), "import and "+field+" are mutually exclusive") {
			t.Errorf("cdnsim -import with %v: err = %v, want the %s exclusion", c.args, err, field)
		}
	}
}
