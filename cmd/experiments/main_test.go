package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestRunSingleTraceFigure(t *testing.T) {
	out, _, err := runCLI(t, "-scale", "small", "-only", "fig03")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "fig03") || !strings.Contains(out, "mean_s") {
		t.Errorf("fig03 output malformed:\n%s", out)
	}
}

func TestRunSingleSimFigure(t *testing.T) {
	out, _, err := runCLI(t, "-scale", "small", "-only", "fig16")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "multicast_kmKB") {
		t.Errorf("fig16 output malformed:\n%s", out)
	}
}

func TestRunSingleExtension(t *testing.T) {
	out, _, err := runCLI(t, "-scale", "small", "-only", "ext-tree-failure")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "final_frac") {
		t.Errorf("ext-tree-failure output malformed:\n%s", out)
	}
}

// -only takes a comma-separated subset; selection order is canonical, not
// flag order.
func TestRunOnlyCommaSeparated(t *testing.T) {
	forward, _, err := runCLI(t, "-scale", "small", "-parallel", "1", "-only", "fig16,ext-regime")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(forward, "fig16") || !strings.Contains(forward, "ext-regime") {
		t.Fatalf("subset output missing a figure:\n%s", forward)
	}
	reversed, _, err := runCLI(t, "-scale", "small", "-parallel", "1", "-only", " ext-regime , fig16 ")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if forward != reversed {
		t.Error("-only order changed stdout")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-scale", "enormous"},
		{"-only", "fig99"},
		{"-only", "fig16,fig99"},
		{"-notaflag"},
		{"-parallel", "0"},
		{"-format", "csv"},
		{"-timeout", "-1s"},
		{"-checkpoint", "a", "-resume", "b"},
		{"-federation", "0"},
		{"-federation", "x"},
		{"-federation", "@no-such-file.json"},
		{"-scale", "small", "-only", "fig16", "-audit-cadence", "5s"},
	}
	for _, args := range cases {
		if _, _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// Parallelism must never change stdout: simulations are deterministic from
// their seeds and tables are emitted in submission order.
func TestRunParallelOutputMatchesSerial(t *testing.T) {
	for _, fig := range []string{"fig17", "ext-regime"} {
		serial, _, err := runCLI(t, "-scale", "small", "-only", fig, "-parallel", "1")
		if err != nil {
			t.Fatalf("%s serial: %v", fig, err)
		}
		par, _, err := runCLI(t, "-scale", "small", "-only", fig, "-parallel", "4", "-metrics")
		if err != nil {
			t.Fatalf("%s parallel: %v", fig, err)
		}
		if serial != par {
			t.Errorf("%s: parallel stdout differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", fig, serial, par)
		}
	}
}

// Figures that ask for the same runs share them within one invocation, and
// sharing never changes a table: the sweep's stdout, serial or parallel,
// is the concatenation of each figure run alone (figs is in sweep order).
func TestRunSharedRunsMatchFiguresAlone(t *testing.T) {
	figs := []string{"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig22", "fig23",
		"ext-broadcast", "ext-lease", "ablation-queue", "ablation-adaptive"}
	var alone strings.Builder
	for _, fig := range figs {
		out, _, err := runCLI(t, "-scale", "small", "-parallel", "4", "-only", fig)
		if err != nil {
			t.Fatalf("%s alone: %v", fig, err)
		}
		alone.WriteString(out)
	}
	for _, workers := range []string{"1", "4"} {
		out, _, err := runCLI(t, "-scale", "small", "-parallel", workers, "-only", strings.Join(figs, ","))
		if err != nil {
			t.Fatalf("-parallel %s: %v", workers, err)
		}
		if out != alone.String() {
			t.Errorf("-parallel %s: shared sweep differs from the figures run alone:\n--- alone ---\n%s--- shared ---\n%s",
				workers, alone.String(), out)
		}
	}
}

// The invariant auditor observes without perturbing: an audited sweep's
// stdout is byte-identical to an unaudited one.
func TestRunAuditedOutputMatchesPlain(t *testing.T) {
	plain, _, err := runCLI(t, "-scale", "small", "-parallel", "1", "-only", "fig16,ablation-depth")
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	audited, _, err := runCLI(t, "-scale", "small", "-parallel", "1", "-only", "fig16,ablation-depth",
		"-audit", "-audit-cadence", "10s")
	if err != nil {
		t.Fatalf("audited: %v", err)
	}
	if plain != audited {
		t.Errorf("-audit changed stdout:\n--- plain ---\n%s--- audited ---\n%s", plain, audited)
	}
}

// A per-figure -timeout that cannot be met aborts the sweep with a deadline
// error instead of hanging.
func TestRunPerJobTimeout(t *testing.T) {
	_, _, err := runCLI(t, "-scale", "small", "-only", "fig17", "-timeout", "1ns")
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want per-job deadline exceeded", err)
	}
}

// Resume determinism, the crash-safety contract: a sweep that checkpointed
// only some figures and is then resumed produces stdout byte-identical to
// an uninterrupted sweep over the full set.
func TestRunResumeIsByteIdenticalToUninterrupted(t *testing.T) {
	full, _, err := runCLI(t, "-scale", "small", "-parallel", "1", "-only", "fig16,fig22,ext-regime")
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}

	dir := t.TempDir()
	if _, _, err := runCLI(t, "-scale", "small", "-parallel", "1", "-only", "fig16",
		"-checkpoint", dir); err != nil {
		t.Fatalf("partial checkpointed run: %v", err)
	}

	resumed, stderr, err := runCLI(t, "-scale", "small", "-parallel", "1", "-only", "fig16,fig22,ext-regime",
		"-resume", dir)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed != full {
		t.Errorf("resumed stdout differs from uninterrupted:\n--- full ---\n%s--- resumed ---\n%s", full, resumed)
	}
	if !strings.Contains(stderr, "fig16 restored from checkpoint") {
		t.Errorf("resume recomputed the checkpointed figure:\n%s", stderr)
	}
	for _, fresh := range []string{"fig22 done in", "ext-regime done in"} {
		if !strings.Contains(stderr, fresh) {
			t.Errorf("resume did not run %q:\n%s", fresh, stderr)
		}
	}
}

// interruptOnFirstWrite fires the given interrupt the moment the first
// figure lands on stdout, standing in for an operator's Ctrl-C mid-sweep.
type interruptOnFirstWrite struct {
	w         io.Writer
	interrupt func()
	once      sync.Once
}

func (c *interruptOnFirstWrite) Write(p []byte) (int, error) {
	c.once.Do(c.interrupt)
	return c.w.Write(p)
}

// Interrupt-then-resume, end to end and under the invariant auditor: a real
// SIGTERM mid-sweep (delivered through the same signal.NotifyContext wiring
// main uses) leaves a journal of the finished figures and a resume hint;
// resuming yields stdout byte-identical to an uninterrupted audited sweep.
// Any invariant violation along the way fails the run.
func TestRunInterruptedThenResumed(t *testing.T) {
	const figs = "fig16,fig17,fig22,ext-regime"
	full, _, err := runCLI(t, "-scale", "small", "-parallel", "1", "-audit", "-only", figs)
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}

	dir := t.TempDir()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	var partial bytes.Buffer
	sigterm := func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Errorf("raise SIGTERM: %v", err)
		}
	}
	err = run(ctx, []string{"-scale", "small", "-parallel", "1", "-audit", "-only", figs, "-checkpoint", dir},
		&interruptOnFirstWrite{w: &partial, interrupt: sigterm}, io.Discard)
	if err == nil {
		t.Fatal("cancellation mid-sweep did not abort the run")
	}
	if !strings.Contains(err.Error(), "-resume "+dir) {
		t.Errorf("abort error lacks the resume hint: %v", err)
	}
	if !strings.HasPrefix(full, partial.String()) {
		t.Errorf("interrupted stdout is not a prefix of the uninterrupted sweep:\n--- interrupted ---\n%s", partial.String())
	}

	resumed, _, err := runCLI(t, "-scale", "small", "-parallel", "1", "-audit", "-only", figs, "-resume", dir)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed != full {
		t.Errorf("resumed stdout differs from uninterrupted:\n--- full ---\n%s--- resumed ---\n%s", full, resumed)
	}
}

// A fresh -checkpoint refuses a directory that already holds progress, and
// -resume refuses a journal recorded under different sweep parameters.
func TestRunCheckpointSafetyChecks(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := runCLI(t, "-scale", "small", "-only", "fig16", "-checkpoint", dir); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, _, err := runCLI(t, "-scale", "small", "-only", "fig16", "-checkpoint", dir); err == nil ||
		!strings.Contains(err.Error(), "-resume") {
		t.Errorf("fresh -checkpoint reused a populated directory: %v", err)
	}
	if _, _, err := runCLI(t, "-scale", "small", "-format", "markdown", "-only", "fig16", "-resume", dir); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Errorf("resume across a format change accepted: %v", err)
	}
	// Same parameters resume cleanly and replay the recorded figure.
	out, _, err := runCLI(t, "-scale", "small", "-only", "fig16", "-resume", dir)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !strings.Contains(out, "fig16") {
		t.Errorf("resume did not re-emit the recorded figure:\n%s", out)
	}
}

// Serial and sharded sweeps are different simulations, so a journal recorded
// by one must not be replayed as the other; the -shards value beyond on/off
// changes no bytes and resumes freely.
func TestRunCheckpointSeparatesSerialFromSharded(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := runCLI(t, "-scale", "small", "-only", "fig16", "-checkpoint", dir); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if _, _, err := runCLI(t, "-scale", "small", "-only", "fig16", "-resume", dir, "-shards", "2"); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Errorf("sharded resume of a serial journal accepted: %v", err)
	}

	dir = t.TempDir()
	if _, _, err := runCLI(t, "-scale", "small", "-only", "fig16", "-checkpoint", dir, "-shards", "1"); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if _, stderr, err := runCLI(t, "-scale", "small", "-only", "fig16", "-resume", dir, "-shards", "2"); err != nil ||
		!strings.Contains(stderr, "fig16 restored from checkpoint") {
		t.Errorf("resume at another -shards value did not replay the journal: err=%v\n%s", err, stderr)
	}
}

// TestRunImportReplay drives the import-replay figure end to end from a
// generated crawl trace: the sweep collapses to that one figure, the output
// is deterministic, and conflicting flags are rejected.
func TestRunImportReplay(t *testing.T) {
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
	out, _, err := runCLI(t, "-scale", "small", "-import", path)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"import-replay", "inferred spec: 12 servers", "HAT"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	again, _, err := runCLI(t, "-scale", "small", "-import", path)
	if err != nil {
		t.Fatalf("run #2: %v", err)
	}
	if out != again {
		t.Errorf("import-replay output differs across runs:\n%s\nvs\n%s", out, again)
	}
	for _, args := range [][]string{
		{"-import", path, "-only", "fig16"},
		{"-import", path, "-faults", "churn"},
		{"-import", path, "-shards", "2"},
		{"-import", path, "-plan", "x.json"},
		{"-import", filepath.Join(t.TempDir(), "missing.jsonl")},
	} {
		if _, _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
