package traceimport

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/workload"
)

// goldenTrace is a fixed full-day crawl the bundle tests infer from.
func goldenTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := genConfig(24, 99)
	return generate(t, cfg).Trace
}

// smokeBundle is the committed import fixture plans/40-import-replay.json
// replays.
var smokeBundle = filepath.Join("..", "..", "plans", "bundles", "smoke.json")

// TestGoldenBundle pins smokeBundle byte-for-byte: it is the bundle inferred
// from the crawl `tracegen -short -servers 24 -days 1 -users 20 -seed 99`
// writes, whether inferred in memory, from the JSONL rendering or from the
// access-log rendering. Any estimator or generator change shows up as a
// readable JSON diff; refresh the fixture with
// UPDATE_GOLDEN=1 go test ./internal/traceimport -run TestGoldenBundle.
func TestGoldenBundle(t *testing.T) {
	cfg := genConfig(24, 99)
	cfg.Game = workload.ShortGame()
	tr := generate(t, cfg).Trace
	marshal := func(b *Bundle) []byte {
		t.Helper()
		out, err := b.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		return append(out, '\n')
	}
	b, err := Infer(tr)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	got := marshal(b)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(smokeBundle, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(smokeBundle)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("inferred bundle deviates from %s (refresh it with UPDATE_GOLDEN=1 go test ./internal/traceimport -run TestGoldenBundle):\n--- got ---\n%s\n--- want ---\n%s",
			smokeBundle, got, want)
	}
	// The committed golden must itself parse and validate.
	if _, err := ParseBundle(bytes.TrimSuffix(want, []byte("\n"))); err != nil {
		t.Fatalf("golden bundle does not re-parse: %v", err)
	}

	// Both on-disk renderings infer the identical bytes (format
	// convergence). The access log is written in time order, as tracegen
	// writes it.
	var jsonl, accessLog bytes.Buffer
	if err := trace.Write(&jsonl, tr); err != nil {
		t.Fatal(err)
	}
	tr.SortRecords()
	if err := trace.WriteAccessLog(&accessLog, tr); err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		format string
		data   []byte
	}{{FormatJSONL, jsonl.Bytes()}, {FormatAccessLog, accessLog.Bytes()}} {
		b, format, err := ImportAny(in.data)
		if err != nil || format != in.format {
			t.Fatalf("ImportAny(%s): format %q, err %v", in.format, format, err)
		}
		if got := marshal(b); !bytes.Equal(got, want) {
			t.Errorf("%s rendering infers a bundle that deviates from %s:\n%s", in.format, smokeBundle, got)
		}
	}
}

func TestBundleRoundTripBytes(t *testing.T) {
	b, err := Infer(goldenTrace(t))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	first, err := b.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	parsed, err := ParseBundle(first)
	if err != nil {
		t.Fatalf("ParseBundle: %v", err)
	}
	second, err := parsed.Marshal()
	if err != nil {
		t.Fatalf("second Marshal: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("bundle round trip changed bytes:\n%s\nvs\n%s", first, second)
	}
}

func TestParseBundleStrictness(t *testing.T) {
	b, err := Infer(goldenTrace(t))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	valid := string(data)
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{"unknown field", func(s string) string {
			return strings.Replace(s, `"summary"`, `"zummary"`, 1)
		}, "unknown field"},
		{"trailing data", func(s string) string {
			return s + " {}"
		}, "trailing data"},
		{"server count mismatch", func(s string) string {
			return strings.Replace(s, `"servers": 24`, `"servers": 25`, 1)
		}, "summary says"},
		{"redirect out of range", func(s string) string {
			return strings.Replace(s, `"redirect_frac": 0.1`, `"redirect_frac": 1.1`, 1)
		}, "redirect_frac"},
		{"negative ttl", func(s string) string {
			return strings.Replace(s, `"server_ttl": "1m0s"`, `"server_ttl": "-1m0s"`, 1)
		}, "server_ttl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			input := tc.mutate(valid)
			if input == valid {
				t.Fatal("mutation did not change the input")
			}
			_, err := ParseBundle([]byte(input))
			if err == nil {
				t.Fatal("ParseBundle accepted mutated bundle")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestBundleValidateFaultIndexBound(t *testing.T) {
	b, err := Infer(goldenTrace(t))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if b.Faults == nil || len(b.Faults.Crashes) == 0 {
		t.Skip("golden trace produced no crash windows")
	}
	b.Faults.Crashes[0].Server = b.Summary.Servers
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "targets server") {
		t.Fatalf("want out-of-range crash error, got %v", err)
	}
}

func TestReadTraceSniffsFormats(t *testing.T) {
	tr := goldenTrace(t)
	var jsonl bytes.Buffer
	if err := trace.Write(&jsonl, tr); err != nil {
		t.Fatalf("trace.Write: %v", err)
	}
	_, format, err := ReadTrace(&jsonl)
	if err != nil {
		t.Fatalf("ReadTrace(jsonl): %v", err)
	}
	if format != FormatJSONL {
		t.Errorf("sniffed %q, want %q", format, FormatJSONL)
	}
	if _, _, err := ReadTrace(strings.NewReader("not a trace")); err == nil {
		t.Error("ReadTrace accepted junk input")
	}
}

func TestLoadBundleAndTraceFiles(t *testing.T) {
	dir := t.TempDir()
	b, err := Infer(goldenTrace(t))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	bundlePath := filepath.Join(dir, "bundle.json")
	if err := os.WriteFile(bundlePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, format, err := LoadAny(bundlePath); err != nil || format != FormatBundle {
		t.Errorf("LoadAny(bundle): format %q err %v", format, err)
	}
	if _, _, err := LoadAny(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadAny accepted a missing file")
	}
	tracePath := filepath.Join(dir, "trace.jsonl")
	var jsonl bytes.Buffer
	if err := trace.Write(&jsonl, goldenTrace(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, jsonl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, format, err := LoadTrace(tracePath); err != nil || format != FormatJSONL {
		t.Errorf("LoadTrace: format %q err %v", format, err)
	}
	if _, _, err := LoadTrace(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("LoadTrace accepted a missing file")
	}
}

// TestLoadAnyAcceptsAllKinds pins the three-way sniff: an access log, a
// pre-inferred bundle, and a raw JSONL trace all resolve to the same bundle
// bytes through LoadAny.
func TestLoadAnyAcceptsAllKinds(t *testing.T) {
	dir := t.TempDir()
	tr := goldenTrace(t)
	want, err := Infer(tr)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	wantJSON, err := want.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}

	bundlePath := filepath.Join(dir, "bundle.json")
	if err := os.WriteFile(bundlePath, wantJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := trace.Write(&jsonl, tr); err != nil {
		t.Fatal(err)
	}
	jsonlPath := filepath.Join(dir, "trace.jsonl")
	if err := os.WriteFile(jsonlPath, jsonl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sorted := *tr
	sorted.SortRecords()
	var logBuf bytes.Buffer
	if err := trace.WriteAccessLog(&logBuf, &sorted); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "trace.log")
	if err := os.WriteFile(logPath, logBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		path, format string
	}{
		{bundlePath, FormatBundle},
		{jsonlPath, FormatJSONL},
		{logPath, FormatAccessLog},
	}
	for _, tc := range cases {
		b, format, err := LoadAny(tc.path)
		if err != nil {
			t.Fatalf("LoadAny(%s): %v", tc.path, err)
		}
		if format != tc.format {
			t.Errorf("LoadAny(%s) sniffed %q, want %q", tc.path, format, tc.format)
		}
		got, err := b.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("LoadAny(%s) bundle deviates from direct inference", tc.path)
		}
	}
	if _, _, err := LoadAny(filepath.Join(dir, "missing")); err == nil {
		t.Error("LoadAny accepted a missing file")
	}
	junkPath := filepath.Join(dir, "junk")
	if err := os.WriteFile(junkPath, []byte("not importable\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadAny(junkPath); err == nil || !strings.Contains(err.Error(), "neither a bundle nor a trace") {
		t.Errorf("LoadAny(junk) = %v, want a neither-kind error", err)
	}
}

// TestBundleValidateRejectsEachField walks every cross-check in Validate by
// mutating one field at a time of a known-good bundle.
func TestBundleValidateRejectsEachField(t *testing.T) {
	good, err := Infer(goldenTrace(t))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if good.Faults == nil || len(good.Faults.Crashes) == 0 {
		t.Fatal("golden trace produced no crash windows; the fault checks need one")
	}
	cases := []struct {
		name    string
		mutate  func(*Bundle)
		wantErr string
	}{
		{"servers zero", func(b *Bundle) { b.Summary.Servers = 0 }, "servers"},
		{"sites zero", func(b *Bundle) { b.Summary.Sites = 0 }, "sites"},
		{"users negative", func(b *Bundle) { b.Summary.Users = -1 }, "users"},
		{"days zero", func(b *Bundle) { b.Summary.Days = 0 }, "days"},
		{"day length zero", func(b *Bundle) { b.Summary.DayLength = 0 }, "day_length"},
		{"poll interval zero", func(b *Bundle) { b.Summary.PollInterval = 0 }, "poll_interval"},
		{"server ttl zero", func(b *Bundle) { b.Summary.ServerTTL = 0 }, "server_ttl"},
		{"updates zero", func(b *Bundle) { b.Summary.UpdatesPerDay = 0 }, "updates_per_day"},
		{"mean gap zero", func(b *Bundle) { b.Summary.UpdateMeanGap = 0 }, "update_mean_gap"},
		{"redirect negative", func(b *Bundle) { b.Summary.RedirectFrac = -0.1 }, "redirect_frac"},
		{"absences negative", func(b *Bundle) { b.Summary.Absences = -1 }, "absences"},
		{"no server map", func(b *Bundle) { b.ServerMap = nil }, "no server map"},
		{"sites mismatch", func(b *Bundle) { b.Summary.Sites++ }, "summary says"},
		{"no population", func(b *Bundle) { b.Population = nil }, "no population"},
		{"population user mismatch", func(b *Bundle) { b.Summary.Users++ }, "summary says"},
		{"invalid faults", func(b *Bundle) { b.Faults.Crashes[0].AtFrac = 2 }, "outside [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := good.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			b, err := ParseBundle(data)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(b)
			err = b.Validate()
			if err == nil {
				t.Fatal("Validate accepted the mutated bundle")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if _, err := b.Options(); err == nil {
				t.Error("Options accepted the mutated bundle")
			}
		})
	}
	var nilBundle *Bundle
	if err := nilBundle.Validate(); err == nil {
		t.Error("nil bundle validated")
	}
}

func TestCrashWindows(t *testing.T) {
	b, err := Infer(goldenTrace(t))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if got, want := len(b.CrashWindows()), b.Summary.Absences; got == 0 || got > want {
		t.Errorf("CrashWindows() = %d windows, want 1..%d", got, want)
	}
	b.Faults = nil
	if b.CrashWindows() != nil {
		t.Error("CrashWindows() without faults is not nil")
	}
}
