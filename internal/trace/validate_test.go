package trace_test

import (
	"fmt"
	"testing"
	"time"

	"cdnconsistency/internal/analysis"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/traceimport"
)

// TestIndexValidates holds the checks NewIndex makes while it indexes to
// Validate's: every way a trace fails Validate, alone or with a second
// fault behind the first, fails NewDataset and Infer with Validate's error
// for it, wrapped by each, and never panics.
func TestIndexValidates(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*trace.Trace)
		want string
	}{
		{"zero days", func(tr *trace.Trace) { tr.Meta.Days = 0 },
			"trace: non-positive day count 0"},
		{"zero interval", func(tr *trace.Trace) { tr.Meta.PollInterval = 0 },
			"trace: non-positive poll interval 0s"},
		{"empty server id", func(tr *trace.Trace) { tr.Servers[0].ID = "" },
			"trace: server with empty id"},
		{"dup server id", func(tr *trace.Trace) { tr.Servers[1].ID = "s1" },
			`trace: duplicate server id "s1"`},
		{"bad day", func(tr *trace.Trace) { tr.Records[0].Day = 5 },
			"trace: record 0 day 5 outside [0,2)"},
		{"negative day", func(tr *trace.Trace) { tr.Records[2].Day = -1 },
			"trace: record 2 day -1 outside [0,2)"},
		{"provider user view", func(tr *trace.Trace) { tr.Records[0].Provider, tr.Records[0].UserView = true, true },
			"trace: record 0 is both a provider poll and a user view"},
		{"unknown server", func(tr *trace.Trace) { tr.Records[0].Server = "ghost" },
			`trace: record 0 references unknown server "ghost"`},
		{"negative time", func(tr *trace.Trace) { tr.Records[0].At = -time.Second },
			"trace: record 0 time -1s outside day"},
		{"time past day", func(tr *trace.Trace) { tr.Records[0].At = 2 * time.Hour },
			"trace: record 0 time 2h0m0s outside day"},
		{"negative snapshot", func(tr *trace.Trace) { tr.Records[0].Snapshot = -1 },
			"trace: record 0 negative snapshot"},
		{"absent with snapshot", func(tr *trace.Trace) { tr.Records[1].Snapshot = 3 },
			"trace: record 1 absent but carries snapshot 3"},
		{"servers before records", func(tr *trace.Trace) { tr.Servers[1].ID = "s1"; tr.Records[0].Day = 5 },
			`trace: duplicate server id "s1"`},
		{"earlier record first", func(tr *trace.Trace) { tr.Records[3].Day = 9; tr.Records[1].Snapshot = 3 },
			"trace: record 1 absent but carries snapshot 3"},
		{"day before server", func(tr *trace.Trace) { tr.Records[0].Day, tr.Records[0].Server = 5, "ghost" },
			"trace: record 0 day 5 outside [0,2)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := validTrace()
			c.mut(tr)
			for _, check := range []struct{ name, got, want string }{
				{"Validate", errText(tr.Validate), c.want},
				{"NewDataset", errText(func() error { _, err := analysis.NewDataset(tr); return err }), "analysis: " + c.want},
				{"Infer", errText(func() error { _, err := traceimport.Infer(tr); return err }), "traceimport: " + c.want},
			} {
				if check.got != check.want {
					t.Errorf("%s: %s, want %s", check.name, check.got, check.want)
				}
			}
		})
	}
}

// validTrace is a small crawl that passes Validate: crawler, absent,
// provider and user-view records over two days.
func validTrace() *trace.Trace {
	return &trace.Trace{
		Meta: trace.Meta{Days: 2, PollInterval: 10 * time.Second, DayLength: time.Hour},
		Servers: []trace.ServerInfo{
			{ID: "s1", Lat: 33.7, Lon: -84.4, ISP: 1},
			{ID: "s2", Lat: 51.5, Lon: -0.1, ISP: 2, City: 1, DistanceKm: 6760},
		},
		Records: []trace.PollRecord{
			{Day: 0, Server: "s1", Poller: "p1", At: 10 * time.Second, Snapshot: 1, RTT: 80 * time.Millisecond},
			{Day: 0, Server: "s2", Poller: "p2", At: 10 * time.Second, Absent: true},
			{Day: 1, Server: "s2", Poller: "p2", At: 20 * time.Second, Snapshot: 2, RTT: 120 * time.Millisecond},
			{Day: 0, Server: "origin", Poller: "p1", At: 30 * time.Second, Snapshot: 2, Provider: true},
			{Day: 0, Server: "s1", Poller: "u1", At: 40 * time.Second, Snapshot: 1, UserView: true},
		},
	}
}

// errText runs f and returns its error's text, "<nil>", or the panic it
// raised.
func errText(f func() error) (s string) {
	defer func() {
		if p := recover(); p != nil {
			s = fmt.Sprintf("panic: %v", p)
		}
	}()
	if err := f(); err != nil {
		return err.Error()
	}
	return "<nil>"
}
