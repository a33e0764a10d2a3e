package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
)

// crawl generates a synthetic crawl in canonical record order and encodes
// it as JSONL and as a #cdnlog access log.
func crawl(tb testing.TB, servers, days, users int) (tr *trace.Trace, jsonl, accesslog []byte) {
	tb.Helper()
	gen, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: servers, Seed: 1},
		Days:     days,
		Users:    users,
		Seed:     1,
	})
	if err != nil {
		tb.Fatalf("tracegen.Generate: %v", err)
	}
	gen.Trace.SortRecords()
	var j, a bytes.Buffer
	if err := trace.Write(&j, gen.Trace); err != nil {
		tb.Fatalf("Write: %v", err)
	}
	if err := trace.WriteAccessLog(&a, gen.Trace); err != nil {
		tb.Fatalf("WriteAccessLog: %v", err)
	}
	return gen.Trace, j.Bytes(), a.Bytes()
}

// TestCrawlPollLinesTakeFastPath pins the JSONL speed-up: every poll line
// Write emits for a generated crawl must be decoded by the canonical
// scanner, not by the encoding/json fallback, and Read must return the
// crawl unchanged.
func TestCrawlPollLinesTakeFastPath(t *testing.T) {
	want, jsonl, _ := crawl(t, 8, 1, 4)
	var scanned []trace.PollRecord
	for _, line := range bytes.Split(bytes.TrimSuffix(jsonl, []byte("\n")), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"type":"poll"`)) {
			continue
		}
		rec, ok := trace.ScanPollLine(line)
		if !ok {
			t.Fatalf("poll line fell back to encoding/json: %s", line)
		}
		scanned = append(scanned, rec)
	}
	if !reflect.DeepEqual(scanned, want.Records) {
		t.Fatal("scanned poll records differ from the generated crawl")
	}
	got, err := trace.Read(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Read did not reproduce the generated crawl")
	}
}

// TestCrawlLogLinesTakeFastPath is the #cdnlog twin: every poll line
// WriteAccessLog emits for a generated crawl must be decoded by the
// canonical scanner, not by the tokenizing path, and ParseAccessLog must
// return the crawl's servers and records unchanged.
func TestCrawlLogLinesTakeFastPath(t *testing.T) {
	want, _, accesslog := crawl(t, 8, 1, 4)
	var scanned []trace.PollRecord
	for _, line := range bytes.Split(bytes.TrimSuffix(accesslog, []byte("\n")), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("poll ")) {
			continue
		}
		rec, ok := trace.ScanLogPollLine(line)
		if !ok {
			t.Fatalf("poll line fell back to the tokenizing path: %s", line)
		}
		scanned = append(scanned, rec)
	}
	if !reflect.DeepEqual(scanned, want.Records) {
		t.Fatal("scanned poll records differ from the generated crawl")
	}
	got, err := trace.ParseAccessLog(bytes.NewReader(accesslog))
	if err != nil {
		t.Fatalf("ParseAccessLog: %v", err)
	}
	if !reflect.DeepEqual(got.Servers, want.Servers) || !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatal("ParseAccessLog did not reproduce the generated crawl")
	}
}

// benchSink keeps the decoded traces alive so the calls are not elided.
var benchSink *trace.Trace

// BenchmarkReadJSONL measures JSONL decoding throughput (MB/s) on a
// generated crawl.
func BenchmarkReadJSONL(b *testing.B) {
	_, jsonl, _ := crawl(b, 16, 1, 8)
	b.SetBytes(int64(len(jsonl)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.Read(bytes.NewReader(jsonl))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = tr
	}
}

// BenchmarkParseAccessLog measures #cdnlog parsing throughput (MB/s) on the
// same crawl.
func BenchmarkParseAccessLog(b *testing.B) {
	_, _, accesslog := crawl(b, 16, 1, 8)
	b.SetBytes(int64(len(accesslog)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.ParseAccessLog(bytes.NewReader(accesslog))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = tr
	}
}
