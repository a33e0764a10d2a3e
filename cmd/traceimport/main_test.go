package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
	"cdnconsistency/internal/traceimport"
)

func genTrace(t *testing.T) *trace.Trace {
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
	return res.Trace
}

func TestRunFileToFile(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "crawl.jsonl")
	var buf bytes.Buffer
	if err := trace.Write(&buf, genTrace(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "bundle.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", inPath, "-out", outPath}, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, _, err := traceimport.LoadAny(outPath)
	if err != nil {
		t.Fatalf("output bundle does not load: %v", err)
	}
	if b.Summary.Servers != 12 || b.Summary.Users != 10 {
		t.Errorf("bundle summary servers=%d users=%d", b.Summary.Servers, b.Summary.Users)
	}
	for _, want := range []string{"jsonl input", "12 servers", "10 users"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

func TestRunStdinToStdout(t *testing.T) {
	var in bytes.Buffer
	if err := trace.Write(&in, genTrace(t)); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(nil, &in, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := traceimport.ParseBundle(bytes.TrimSuffix(stdout.Bytes(), []byte("\n")))
	if err != nil {
		t.Fatalf("stdout is not a valid bundle: %v", err)
	}
	// Importing the emitted bundle again re-emits it byte-canonically.
	again, format, err := traceimport.ImportAny(stdout.Bytes())
	if err != nil {
		t.Fatalf("re-import: %v", err)
	}
	if format != traceimport.FormatBundle {
		t.Errorf("re-import sniffed %q, want %q", format, traceimport.FormatBundle)
	}
	aj, _ := again.Marshal()
	bj, _ := b.Marshal()
	if !bytes.Equal(aj, bj) {
		t.Error("re-imported bundle deviates")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, strings.NewReader("junk"), &stdout, &stderr); err == nil {
		t.Error("junk stdin accepted")
	}
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "missing")}, strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Error("missing input accepted")
	}
	if err := run([]string{"positional"}, strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Error("positional argument accepted")
	}
	if err := run([]string{"-badflag"}, strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Error("bad flag accepted")
	}
}
