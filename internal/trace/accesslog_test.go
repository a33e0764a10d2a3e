package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sortedSample returns sampleTrace in canonical record order, as
// WriteAccessLog requires.
func sortedSample() *Trace {
	tr := sampleTrace()
	tr.SortRecords()
	return tr
}

func TestAccessLogRoundTrip(t *testing.T) {
	tr := sortedSample()
	var buf bytes.Buffer
	if err := WriteAccessLog(&buf, tr); err != nil {
		t.Fatalf("WriteAccessLog: %v", err)
	}
	got, err := ParseAccessLog(&buf)
	if err != nil {
		t.Fatalf("ParseAccessLog: %v", err)
	}
	// The format deliberately cannot carry the description, the generator's
	// ServerTTL, or the seed; everything else must survive exactly.
	want := *tr
	want.Meta.Description = ""
	want.Meta.ServerTTL = 0
	want.Meta.Seed = 0
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Errorf("meta changed: got %+v want %+v", got.Meta, want.Meta)
	}
	if !reflect.DeepEqual(got.Servers, want.Servers) {
		t.Errorf("servers changed: got %+v want %+v", got.Servers, want.Servers)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Errorf("records changed: got %+v want %+v", got.Records, want.Records)
	}
}

func TestWriteAccessLogRejectsUnsorted(t *testing.T) {
	tr := sampleTrace() // records deliberately out of (day, time) order
	var buf bytes.Buffer
	if err := WriteAccessLog(&buf, tr); err == nil {
		t.Fatal("WriteAccessLog accepted out-of-order records")
	}
}

// validLog renders the sorted sample as access-log text for mutation tests.
func validLog(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAccessLog(&buf, sortedSample()); err != nil {
		t.Fatalf("WriteAccessLog: %v", err)
	}
	return buf.String()
}

func TestParseAccessLogStrictness(t *testing.T) {
	valid := validLog(t)
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{"unknown header field", func(s string) string {
			return strings.Replace(s, "poll=10s", "poll=10s zone=utc", 1)
		}, "unknown field"},
		{"unknown server field", func(s string) string {
			return strings.Replace(s, "dist=0", "dist=0 rack=7", 1)
		}, "unknown field"},
		{"unknown poll field", func(s string) string {
			return strings.Replace(s, "snap=1", "snap=1 cache=hit", 1)
		}, "unknown field"},
		{"unknown poll flag", func(s string) string {
			return strings.Replace(s, "snap=1", "snap=1 cached", 1)
		}, "unknown flag"},
		{"duplicate field", func(s string) string {
			return strings.Replace(s, "days=2", "days=2 days=2", 1)
		}, "duplicate field"},
		{"duplicate flag", func(s string) string {
			return strings.Replace(s, " absent", " absent absent", 1)
		}, "duplicate flag"},
		{"trailing data after trace", func(s string) string {
			return s + "GET /index.html 200\n"
		}, "unknown line kind"},
		{"out-of-order timestamps", func(s string) string {
			lines := strings.SplitAfter(s, "\n")
			// Swap the last two poll lines (monotone by construction).
			n := len(lines)
			lines[n-2], lines[n-3] = lines[n-3], lines[n-2]
			return strings.Join(lines, "")
		}, "out-of-order timestamp"},
		{"truncated last line", func(s string) string {
			return strings.TrimSuffix(s, "\n")
		}, "truncated last line"},
		{"blank line", func(s string) string {
			return strings.Replace(s, "poll day=0", "\npoll day=0", 1)
		}, "blank line"},
		{"missing header", func(s string) string {
			_, rest, _ := strings.Cut(s, "\n")
			return rest
		}, "header"},
		{"malformed duration", func(s string) string {
			return strings.Replace(s, "at=10s", "at=never", 1)
		}, "field at"},
		{"absent with snapshot", func(s string) string {
			return strings.Replace(s, "snap=0 absent", "snap=3 absent", 1)
		}, "absent"},
		{"unknown server reference", func(s string) string {
			return strings.Replace(s, "srv=s1", "srv=ghost", 1)
		}, "unknown server"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			input := tc.mutate(valid)
			if input == valid {
				t.Fatal("mutation did not change the input")
			}
			_, err := ParseAccessLog(strings.NewReader(input))
			if err == nil {
				t.Fatalf("ParseAccessLog accepted mutated input:\n%s", input)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseAccessLogErrorsCarryLineNumbers(t *testing.T) {
	input := accessLogHeader + " days=1 daylen=1h0m0s poll=10s\n" +
		"#server id=s1 lat=1 lon=2 isp=0 city=0 dist=0\n" +
		"poll day=0 at=1s srv=s1 via=p1 rtt=1ms snap=bad\n"
	_, err := ParseAccessLog(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want a line-3 error, got %v", err)
	}
}

func TestParseAccessLogEmptyInput(t *testing.T) {
	if _, err := ParseAccessLog(strings.NewReader("")); err == nil {
		t.Fatal("ParseAccessLog accepted empty input")
	}
}

func TestAccessLogPreservesFloatPrecision(t *testing.T) {
	tr := sortedSample()
	tr.Servers[0].Lat = 33.74900000000001
	tr.Servers[0].DistanceKm = 12345.678901234567
	var buf bytes.Buffer
	if err := WriteAccessLog(&buf, tr); err != nil {
		t.Fatalf("WriteAccessLog: %v", err)
	}
	got, err := ParseAccessLog(&buf)
	if err != nil {
		t.Fatalf("ParseAccessLog: %v", err)
	}
	if got.Servers[0].Lat != tr.Servers[0].Lat || got.Servers[0].DistanceKm != tr.Servers[0].DistanceKm {
		t.Fatalf("floats drifted: got %v/%v want %v/%v",
			got.Servers[0].Lat, got.Servers[0].DistanceKm, tr.Servers[0].Lat, tr.Servers[0].DistanceKm)
	}
}

func TestAccessLogSameDayEqualTimesAllowed(t *testing.T) {
	tr := &Trace{
		Meta: Meta{Days: 1, PollInterval: 10 * time.Second, DayLength: time.Minute},
		Servers: []ServerInfo{
			{ID: "a"}, {ID: "b"},
		},
		Records: []PollRecord{
			{Day: 0, Server: "a", Poller: "p", At: 10 * time.Second, Snapshot: 1},
			{Day: 0, Server: "b", Poller: "p", At: 10 * time.Second, Snapshot: 1},
		},
	}
	var buf bytes.Buffer
	if err := WriteAccessLog(&buf, tr); err != nil {
		t.Fatalf("WriteAccessLog: %v", err)
	}
	if _, err := ParseAccessLog(&buf); err != nil {
		t.Fatalf("ParseAccessLog rejected equal timestamps: %v", err)
	}
}

// TestParseAccessLogLongLine covers lines longer than the reader's buffer,
// which are assembled from several buffer fills.
func TestParseAccessLogLongLine(t *testing.T) {
	tr := sortedSample()
	long := strings.Repeat("x", 3<<16)
	tr.Servers[0].ID = long
	for i := range tr.Records {
		if tr.Records[i].Server == "s1" {
			tr.Records[i].Server = long
		}
	}
	var buf bytes.Buffer
	if err := WriteAccessLog(&buf, tr); err != nil {
		t.Fatalf("WriteAccessLog: %v", err)
	}
	got, err := ParseAccessLog(&buf)
	if err != nil {
		t.Fatalf("ParseAccessLog: %v", err)
	}
	if !reflect.DeepEqual(got.Servers, tr.Servers) || !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatal("long-line trace did not round-trip")
	}
}
