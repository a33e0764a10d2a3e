package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: cdnconsistency
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkFig19-8         	       2	 123000000 ns/op	95000000 B/op	  854000 allocs/op
BenchmarkFig19-8         	       2	 125000000 ns/op	95000008 B/op	  854000 allocs/op
BenchmarkFig19-8         	       2	 121000000 ns/op	95000016 B/op	  854001 allocs/op
BenchmarkFig20-8         	       1	 694000000 ns/op	420000000 B/op	 4280000 allocs/op
BenchmarkFig03-8         	       1	 171764452 ns/op	        35.08 mean_s	49518752 B/op	    5254 allocs/op
PASS
ok  	cdnconsistency	2.000s
`

func parseSample(t *testing.T, text string) File {
	t.Helper()
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(text), &out, &out); err != nil {
		t.Fatalf("parse: %v\n%s", err, out.String())
	}
	var f File
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, out.String())
	}
	return f
}

func TestParseMedians(t *testing.T) {
	f := parseSample(t, sampleBench)
	if f.Goos != "linux" || f.Goarch != "amd64" || f.Pkg != "cdnconsistency" {
		t.Errorf("header = %q/%q/%q", f.Goos, f.Goarch, f.Pkg)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(f.Benchmarks))
	}
	fig19 := f.Benchmarks[0]
	if fig19.Name != "Fig19" || fig19.Runs != 3 {
		t.Fatalf("first = %+v", fig19)
	}
	if fig19.NsPerOp != 123000000 {
		t.Errorf("Fig19 median ns/op = %v, want 123000000", fig19.NsPerOp)
	}
	if fig19.AllocsPerOp != 854000 {
		t.Errorf("Fig19 median allocs/op = %v, want 854000", fig19.AllocsPerOp)
	}
	if f.Benchmarks[1].Name != "Fig20" || f.Benchmarks[1].Runs != 1 {
		t.Errorf("second = %+v", f.Benchmarks[1])
	}
	// Custom b.ReportMetric columns interleaved with -benchmem columns land
	// in Extra and do not corrupt the standard metrics.
	fig03 := f.Benchmarks[2]
	if fig03.Name != "Fig03" || fig03.AllocsPerOp != 5254 || fig03.BytesPerOp != 49518752 {
		t.Errorf("Fig03 = %+v", fig03)
	}
	if fig03.Extra["mean_s"] != 35.08 {
		t.Errorf("Fig03 Extra = %v, want mean_s=35.08", fig03.Extra)
	}
}

func TestParseNoBenchmarks(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("PASS\n"), &out, &out); err == nil {
		t.Fatal("expected an error for input without benchmark lines")
	}
}

func writeBenchFile(t *testing.T, name string, f File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := writeBenchFile(t, "base.json", File{Benchmarks: []Benchmark{
		{Name: "Fig19", NsPerOp: 100, AllocsPerOp: 1000},
		{Name: "Fig20", NsPerOp: 500, AllocsPerOp: 4000},
	}})
	better := writeBenchFile(t, "better.json", File{Benchmarks: []Benchmark{
		{Name: "Fig19", NsPerOp: 60, AllocsPerOp: 200},
		{Name: "Fig20", NsPerOp: 300, AllocsPerOp: 900},
	}})
	worse := writeBenchFile(t, "worse.json", File{Benchmarks: []Benchmark{
		{Name: "Fig19", NsPerOp: 150, AllocsPerOp: 1000},
		{Name: "Fig20", NsPerOp: 500, AllocsPerOp: 4000},
	}})
	missing := writeBenchFile(t, "missing.json", File{Benchmarks: []Benchmark{
		{Name: "Fig20", NsPerOp: 500, AllocsPerOp: 4000},
	}})

	var out bytes.Buffer
	if err := run([]string{"-compare", base + "," + better}, nil, &out, &out); err != nil {
		t.Errorf("improvement flagged as regression: %v", err)
	}
	if err := run([]string{"-compare", base + "," + worse}, nil, &out, &out); err == nil {
		t.Error("50%% ns/op regression passed the 20%% budget")
	}
	// A regression within budget passes.
	if err := run([]string{"-compare", base + "," + worse, "-max-regress", "0.6"}, nil, &out, &out); err != nil {
		t.Errorf("in-budget regression failed: %v", err)
	}
	// A guarded benchmark missing from the candidate fails.
	if err := run([]string{"-compare", base + "," + missing, "-guard", "Fig19,Fig20"}, nil, &out, &out); err == nil {
		t.Error("missing guarded benchmark passed")
	}
	// Without -guard only common benchmarks are compared, so it passes.
	if err := run([]string{"-compare", base + "," + missing}, nil, &out, &out); err != nil {
		t.Errorf("common-only compare failed: %v", err)
	}
}

// TestCompareRejectsBadBudget pins the budget check: a NaN budget used to
// pass any regression (every comparison against NaN is false), and an
// infinite or negative one is no budget at all.
func TestCompareRejectsBadBudget(t *testing.T) {
	base := writeBenchFile(t, "base.json", File{Benchmarks: []Benchmark{{Name: "Fig19", NsPerOp: 100, AllocsPerOp: 1000}}})
	worse := writeBenchFile(t, "worse.json", File{Benchmarks: []Benchmark{{Name: "Fig19", NsPerOp: 1000, AllocsPerOp: 1000}}})
	for _, budget := range []string{"NaN", "Inf", "+Inf", "-Inf", "-0.1"} {
		var out bytes.Buffer
		err := run([]string{"-compare", base + "," + worse, "-max-regress", budget}, nil, &out, &out)
		if err == nil || !strings.Contains(err.Error(), "-max-regress") {
			t.Errorf("-max-regress %s: err = %v, want an error naming -max-regress", budget, err)
		}
	}
}

func TestGobenchRoundTrip(t *testing.T) {
	f := parseSample(t, sampleBench)
	path := writeBenchFile(t, "b.json", f)
	var out bytes.Buffer
	if err := run([]string{"-gobench", path}, nil, &out, &out); err != nil {
		t.Fatalf("gobench: %v", err)
	}
	text := out.String()
	for _, want := range []string{"goos: linux", "BenchmarkFig19 \t2\t123000000 ns/op", "854000 allocs/op"} {
		if !strings.Contains(text, want) {
			t.Errorf("gobench output missing %q:\n%s", want, text)
		}
	}
	// The emitted text parses back to the same aggregates (runs collapse to 1).
	f2 := parseSample(t, text)
	if len(f2.Benchmarks) != len(f.Benchmarks) {
		t.Fatalf("round-trip lost benchmarks: %d != %d", len(f2.Benchmarks), len(f.Benchmarks))
	}
	for i := range f.Benchmarks {
		if f2.Benchmarks[i].NsPerOp != f.Benchmarks[i].NsPerOp ||
			f2.Benchmarks[i].AllocsPerOp != f.Benchmarks[i].AllocsPerOp {
			t.Errorf("round-trip mismatch for %s: %+v vs %+v",
				f.Benchmarks[i].Name, f2.Benchmarks[i], f.Benchmarks[i])
		}
	}
}
