package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
)

// captureStdout runs f with os.Stdout redirected to a buffer.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errCh := make(chan error, 1)
	go func() { errCh <- f() }()
	runErr := <-errCh
	w.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	res, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: 30, Seed: 2},
		Days:     2,
		Users:    10,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// storeTrace encodes tr with write into a fresh file named name.
func storeTrace(t *testing.T, name string, tr *trace.Trace, write func(io.Writer, *trace.Trace) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeTestTrace(t *testing.T) string {
	t.Helper()
	return storeTrace(t, "trace.jsonl", testTrace(t), trace.Write)
}

func TestRunOnStoredTrace(t *testing.T) {
	path := writeTestTrace(t)
	out, err := captureStdout(t, func() error { return run([]string{"-in", path}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"fig03", "fig06", "fig12", "tree-verdict"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s", want)
		}
	}
}

// TestStoredTraceFormatsAgree runs -in on one crawl stored as JSONL and as
// a #cdnlog access log: the report must not depend on the encoding.
func TestStoredTraceFormatsAgree(t *testing.T) {
	tr := testTrace(t)
	tr.SortRecords() // an access log carries its records in time order
	var outs []string
	for _, enc := range []struct {
		name  string
		write func(io.Writer, *trace.Trace) error
	}{{"trace.jsonl", trace.Write}, {"trace.log", trace.WriteAccessLog}} {
		path := storeTrace(t, enc.name, tr, enc.write)
		out, err := captureStdout(t, func() error { return run([]string{"-in", path}) })
		if err != nil {
			t.Fatalf("run -in %s: %v", enc.name, err)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] {
		t.Errorf("access-log report differs from JSONL report:\n--- jsonl\n%s\n--- access log\n%s", outs[0], outs[1])
	}
}

func TestRunSynthetic(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-synthetic", "-servers", "25", "-days", "1", "-users", "8", "-seed", "5"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "inferred_ttl_s") {
		t.Error("output missing TTL inference")
	}
}

func TestRunRequiresInput(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no input accepted")
	}
	if err := run([]string{"-in", "/nonexistent.jsonl"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunRejectsCorruptTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path}); err == nil {
		t.Error("corrupt trace accepted")
	}
}
