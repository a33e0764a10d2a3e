package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleTrace() *Trace {
	return &Trace{
		Meta: Meta{
			Description:  "test",
			Days:         2,
			PollInterval: 10 * time.Second,
			DayLength:    time.Hour,
			ServerTTL:    60 * time.Second,
			Seed:         7,
		},
		Servers: []ServerInfo{
			{ID: "s1", Lat: 33.7, Lon: -84.4, ISP: 1, City: 0, DistanceKm: 0},
			{ID: "s2", Lat: 51.5, Lon: -0.1, ISP: 2, City: 1, DistanceKm: 6760},
		},
		Records: []PollRecord{
			{Day: 0, Server: "s1", Poller: "p1", At: 10 * time.Second, Snapshot: 1, RTT: 80 * time.Millisecond},
			{Day: 0, Server: "s2", Poller: "p2", At: 10 * time.Second, Snapshot: 0, Absent: true, RTT: 0},
			{Day: 1, Server: "s2", Poller: "p2", At: 20 * time.Second, Snapshot: 2, RTT: 120 * time.Millisecond},
			{Day: 0, Server: "origin", Poller: "p1", At: 30 * time.Second, Snapshot: 2, Provider: true},
			{Day: 0, Server: "s1", Poller: "u1", At: 40 * time.Second, Snapshot: 1, UserView: true},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Trace)
	}{
		{"zero days", func(tr *Trace) { tr.Meta.Days = 0 }},
		{"zero interval", func(tr *Trace) { tr.Meta.PollInterval = 0 }},
		{"empty server id", func(tr *Trace) { tr.Servers[0].ID = "" }},
		{"dup server id", func(tr *Trace) { tr.Servers[1].ID = "s1" }},
		{"bad day", func(tr *Trace) { tr.Records[0].Day = 5 }},
		{"unknown server", func(tr *Trace) { tr.Records[0].Server = "ghost" }},
		{"negative time", func(tr *Trace) { tr.Records[0].At = -time.Second }},
		{"time past day", func(tr *Trace) { tr.Records[0].At = 2 * time.Hour }},
		{"negative snapshot", func(tr *Trace) { tr.Records[0].Snapshot = -1 }},
		{"absent with snapshot", func(tr *Trace) { tr.Records[1].Snapshot = 3 }},
		{"provider user view", func(tr *Trace) { tr.Records[0].Provider, tr.Records[0].UserView = true, true }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			tr := sampleTrace()
			m.mut(tr)
			if err := tr.Validate(); err == nil {
				t.Error("Validate accepted corrupt trace")
			}
		})
	}
}

func TestSortRecords(t *testing.T) {
	tr := sampleTrace()
	tr.SortRecords()
	for i := 1; i < len(tr.Records); i++ {
		a, b := tr.Records[i-1], tr.Records[i]
		if a.Day > b.Day || (a.Day == b.Day && a.At > b.At) {
			t.Fatalf("records out of order at %d", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(tr.Meta, got.Meta) {
		t.Errorf("meta mismatch:\n%+v\n%+v", tr.Meta, got.Meta)
	}
	if !reflect.DeepEqual(tr.Servers, got.Servers) {
		t.Errorf("servers mismatch")
	}
	if !reflect.DeepEqual(tr.Records, got.Records) {
		t.Errorf("records mismatch:\n%+v\n%+v", tr.Records, got.Records)
	}
}

func TestPropertyRoundTripRecords(t *testing.T) {
	f := func(day uint8, atSec uint16, snapshot uint16, rttMS uint16, absent bool) bool {
		rec := PollRecord{
			Day:    int(day % 3),
			Server: "s1",
			Poller: "p1",
			At:     time.Duration(atSec) * time.Second,
			RTT:    time.Duration(rttMS) * time.Millisecond,
			Absent: absent,
			// Absent records must carry snapshot 0 per schema.
			Snapshot: 0,
		}
		if !absent {
			rec.Snapshot = int(snapshot)
		}
		tr := &Trace{
			Meta:    Meta{Days: 3, PollInterval: time.Second, DayLength: 20 * time.Hour},
			Servers: []ServerInfo{{ID: "s1"}},
			Records: []PollRecord{rec},
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr.Records, got.Records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"no meta", `{"type":"poll","poll":{"server":"s1"}}`},
		{"dup meta", `{"type":"meta","meta":{"days":1,"poll_interval":1}}` + "\n" + `{"type":"meta","meta":{"days":1,"poll_interval":1}}`},
		{"unknown type", `{"type":"mystery"}`},
		{"bad json", `{{{`},
		{"empty", ``},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tt.input)); err == nil {
				t.Error("Read accepted bad input")
			}
		})
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	input := `{"type":"meta","meta":{"description":"x","days":1,"poll_interval":1000000000}}` + "\n\n" +
		`{"type":"server","server":{"id":"s1"}}` + "\n"
	tr, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(tr.Servers) != 1 {
		t.Errorf("servers = %d", len(tr.Servers))
	}
}
