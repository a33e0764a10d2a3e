package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cdnconsistency/internal/trace"
)

func TestRunWritesValidTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	err := run([]string{"-servers", "20", "-days", "1", "-users", "5", "-seed", "3", "-out", out}, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(tr.Servers) != 20 || tr.Meta.Days != 1 {
		t.Errorf("servers=%d days=%d", len(tr.Servers), tr.Meta.Days)
	}
}

func TestRunShortAccessLog(t *testing.T) {
	out := filepath.Join(t.TempDir(), "crawl.log")
	err := run([]string{"-servers", "10", "-days", "1", "-users", "4", "-seed", "3", "-short", "-format", "accesslog", "-out", out}, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ParseAccessLog(f)
	if err != nil {
		t.Fatalf("ParseAccessLog: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if want := 12 * time.Minute; tr.Meta.DayLength != want {
		t.Errorf("-short day length %v, want %v", tr.Meta.DayLength, want)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-servers", "notanumber"}, io.Discard, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-servers", "0", "-out", filepath.Join(t.TempDir(), "x")}, io.Discard, io.Discard); err == nil {
		t.Error("zero servers accepted")
	}
	if err := run([]string{"-servers", "5", "-out", "/nonexistent-dir/x.jsonl"}, io.Discard, io.Discard); err == nil {
		t.Error("unwritable output accepted")
	}
	if err := run([]string{"-servers", "5", "-format", "csv", "-out", filepath.Join(t.TempDir(), "x")}, io.Discard, io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRunOutMatchesStdout requires -out path to hold the very bytes the
// same run writes to stdout, in both formats.
func TestRunOutMatchesStdout(t *testing.T) {
	for _, format := range []string{"jsonl", "accesslog"} {
		args := []string{"-short", "-servers", "12", "-days", "2", "-users", "3", "-seed", "5", "-format", format}
		var stdout bytes.Buffer
		if err := run(args, &stdout, io.Discard); err != nil {
			t.Fatalf("%s to stdout: %v", format, err)
		}
		out := filepath.Join(t.TempDir(), "crawl")
		if err := run(append(args, "-out", out), io.Discard, io.Discard); err != nil {
			t.Fatalf("%s to -out: %v", format, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if stdout.Len() == 0 || !bytes.Equal(got, stdout.Bytes()) {
			t.Errorf("%s: -out wrote %d bytes, stdout got %d, and they differ", format, len(got), stdout.Len())
		}
	}
}
