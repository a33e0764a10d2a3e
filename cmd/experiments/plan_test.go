package main

import (
	"bytes"
	"context"
	"html"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeTestPlan drops a fast plan file into dir and returns its path.
func writeTestPlan(t *testing.T, dir, file, name, systems, extra string) string {
	t.Helper()
	js := `{
	  "name": "` + name + `",
	  "systems": [` + systems + `],
	  "servers": 12,
	  "users_per_server": 1,
	  "clusters": 3,
	  "server_ttl": "5s",
	  "game": {"phases": [{"name": "play", "duration": "90s", "mean_gap": "15s"}]},
	  ` + extra + `
	}`
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const passingAsserts = `"assert": [
	  {"metric": "user_observations", "op": ">", "value": 0},
	  {"metric": "crashes", "op": "==", "value": 0}
	]`

func writeTestCatalog(t *testing.T, dir string) {
	t.Helper()
	writeTestPlan(t, dir, "10-a.json", "alpha", `"TTL", "Push"`, passingAsserts)
	writeTestPlan(t, dir, "20-b.json", "beta", `"HAT"`, passingAsserts)
}

func TestPlanCatalogRuns(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	junit := filepath.Join(t.TempDir(), "report.xml")
	out, _, err := runCLI(t, "-plan-catalog", dir, "-junit", junit)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"== plan alpha/TTL/s1 ==", "== plan alpha/Push/s1 ==", "== plan beta/HAT/s1 ==",
		"plans: 3 cells, 3 passed, 0 failed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("unexpected failure in stdout:\n%s", out)
	}
	// Catalog order follows filenames, not plan names.
	if strings.Index(out, "alpha/TTL") > strings.Index(out, "beta/HAT") {
		t.Errorf("catalog emitted out of order:\n%s", out)
	}
	report, err := os.ReadFile(junit)
	if err != nil {
		t.Fatalf("junit report: %v", err)
	}
	if !strings.Contains(string(report), `tests="3" failures="0" errors="0"`) {
		t.Errorf("junit counts wrong:\n%s", report)
	}
}

// catalogDir is the committed plan catalog, seededDir its must-fail plans.
var (
	catalogDir = filepath.Join("..", "..", "plans")
	seededDir  = filepath.Join(catalogDir, "seeded")
)

// committedRuns memoizes runCatalog on the committed catalog, which no test
// edits: its serial run is the reference of both the -parallel and the
// interrupt comparison, and a catalog run is a pure function of its plans.
var committedRuns = map[string][2]string{}

// runCatalog runs the plan catalog in dir with a junit report and returns
// stdout and the report.
func runCatalog(t *testing.T, dir string, args ...string) (stdout, junit string) {
	t.Helper()
	key := strings.Join(args, " ")
	if r, ok := committedRuns[key]; ok && dir == catalogDir {
		return r[0], r[1]
	}
	path := filepath.Join(t.TempDir(), "report.xml")
	out, _, err := runCLI(t, append([]string{"-plan-catalog", dir, "-junit", path}, args...)...)
	if err != nil {
		t.Fatalf("%s %v: %v", dir, args, err)
	}
	report, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("junit report: %v", err)
	}
	if dir == catalogDir {
		committedRuns[key] = [2]string{out, string(report)}
	}
	return out, string(report)
}

// TestPlanParallelByteIdentical runs a synthetic catalog and the committed
// one serially and with four workers: stdout and the junit report must be
// byte-identical and every cell must pass.
func TestPlanParallelByteIdentical(t *testing.T) {
	synthetic := t.TempDir()
	writeTestCatalog(t, synthetic)
	for _, tc := range []struct {
		name, dir string
		// want lists stdout lines the serial run must hold.
		want []string
	}{
		{"synthetic", synthetic, nil},
		// The federation storm/flap plans strand no user, and their
		// cross-system compares hold.
		{"plans", catalogDir, []string{"\nPASS\tstranded_users == 0\t", "\nPASS\tcompare degraded_seconds"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, serialJunit := runCatalog(t, tc.dir, "-parallel", "1")
			par, parJunit := runCatalog(t, tc.dir, "-parallel", "4")
			if serial != par {
				t.Errorf("stdout differs across -parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
			}
			if serialJunit != parJunit {
				t.Errorf("junit differs across -parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", serialJunit, parJunit)
			}
			if !strings.Contains(serialJunit, `failures="0" errors="0"`) {
				t.Errorf("catalog did not pass:\n%s", serialJunit)
			}
			for _, want := range tc.want {
				if !strings.Contains(serial, want) {
					t.Errorf("stdout missing %q:\n%s", want, serial)
				}
			}
		})
	}
}

// TestPlanSeededViolationFails runs every must-fail plan in plans/seeded:
// each must fail the run, and its junit report must carry a <failure> with
// the violation. Each file needs a row, so a new seeded plan cannot go
// unrun.
func TestPlanSeededViolationFails(t *testing.T) {
	rows := map[string]struct {
		// failed is the run error's failed-cell count; assertion the
		// violated check its stdout FAIL line and junit <failure> name.
		failed, assertion string
	}{
		"bad-slo.json":            {"1 of 1", "p99_user_inconsistency <= 0.001"},
		"bad-compare.json":        {"1 of 3", "compare degraded_seconds: Push > TTL s1"},
		"bad-audit-tripwire.json": {"1 of 1", "audit_violations == 0"},
		"bad-budget.json":         {"2 of 2", "provider_km_kb <= 1"},
	}
	files, err := filepath.Glob(filepath.Join(seededDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(rows) {
		t.Errorf("%d seeded plans but %d rows", len(files), len(rows))
	}
	for _, path := range files {
		name := filepath.Base(path)
		row, ok := rows[name]
		if !ok {
			t.Errorf("seeded plan %s has no row: add the assertion it must fail", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			junit := filepath.Join(t.TempDir(), "report.xml")
			out, _, err := runCLI(t, "-plan", path, "-junit", junit)
			if err == nil || !strings.Contains(err.Error(), row.failed+" plan cells failed") {
				t.Fatalf("seeded violation did not fail %s cells: %v", row.failed, err)
			}
			if !strings.Contains(out, "FAIL\t"+row.assertion+"\t") {
				t.Errorf("stdout missing FAIL line for %q:\n%s", row.assertion, out)
			}
			report, err := os.ReadFile(junit)
			if err != nil {
				t.Fatalf("junit report not written on failure: %v", err)
			}
			want := `<failure message="1 assertion(s) failed">` + html.EscapeString(row.assertion) + ": "
			if !strings.Contains(string(report), want) {
				t.Errorf("junit missing %q:\n%s", want, report)
			}
		})
	}
}

// cancelOnFirstWrite cancels a context the moment the first stdout byte lands,
// interrupting a catalog mid-matrix the way a SIGTERM would.
type cancelOnFirstWrite struct {
	w      io.Writer
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnFirstWrite) Write(p []byte) (int, error) {
	c.once.Do(c.cancel)
	return c.w.Write(p)
}

// TestPlanInterruptedStops interrupts a synthetic catalog and the committed
// one after the first cell lands, and requires the cancellation back and
// stdout a proper prefix of an uninterrupted run's.
func TestPlanInterruptedStops(t *testing.T) {
	synthetic := t.TempDir()
	writeTestCatalog(t, synthetic)
	// A deliberately heavier trailing plan: with one worker the cancellation
	// fired by the first cell's emission always lands while this one is
	// still simulating, so the interruption is genuinely mid-matrix.
	if err := os.WriteFile(filepath.Join(synthetic, "30-c.json"), []byte(`{
	  "name": "gamma",
	  "systems": ["TTL"],
	  "servers": 100,
	  "users_per_server": 3,
	  "clusters": 10,
	  "server_ttl": "5s",
	  "game": {"phases": [{"name": "play", "duration": "20m", "mean_gap": "10s"}]},
	  `+passingAsserts+`
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, dir string }{{"synthetic", synthetic}, {"plans", catalogDir}} {
		t.Run(tc.name, func(t *testing.T) {
			full, _ := runCatalog(t, tc.dir, "-parallel", "1")

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var partial bytes.Buffer
			err := run(ctx, []string{"-plan-catalog", tc.dir, "-parallel", "1"},
				&cancelOnFirstWrite{w: &partial, cancel: cancel}, io.Discard)
			checkInterrupted(t, err, partial.String(), full)
		})
	}
}

func TestPlanModeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-plan", "x.json", "-plan-catalog", dir}, "mutually exclusive"},
		{[]string{"-junit", "r.xml"}, "-junit requires"},
		{[]string{"-plan-catalog", dir, "-scale", "small"}, "cannot be combined"},
		{[]string{"-plan-catalog", dir, "-only", "fig16"}, "cannot be combined"},
		{[]string{"-plan-catalog", dir, "-audit"}, "cannot be combined"},
		{[]string{"-plan-catalog", t.TempDir()}, "no *.json plans"},
	}
	for _, tc := range cases {
		_, _, err := runCLI(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: error %v does not mention %q", tc.args, err, tc.wantErr)
		}
	}
}

func TestOnlyUnknownIDsListed(t *testing.T) {
	_, _, err := runCLI(t, "-only", "zzz,fig16,fig99")
	if err == nil {
		t.Fatal("unknown ids accepted")
	}
	msg := err.Error()
	// Every unknown id is named (sorted), and the valid set is listed.
	if !strings.Contains(msg, `"fig99", "zzz"`) {
		t.Errorf("error does not list all unknown ids sorted: %q", msg)
	}
	if !strings.Contains(msg, "valid ids: ") || !strings.Contains(msg, "fig03") ||
		!strings.Contains(msg, "ablation-depth") {
		t.Errorf("error does not list valid ids: %q", msg)
	}
	if strings.Contains(msg, `"fig16"`) {
		t.Errorf("error names a valid id as unknown: %q", msg)
	}
}
