package traceimport

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
	"cdnconsistency/internal/workload"
)

// FuzzImportTrace drives the whole import path with arbitrary bytes: sniff
// a format, parse, infer. Nothing may panic, and any bundle that comes out
// must validate and round-trip through its own JSON byte-exactly.
func FuzzImportTrace(f *testing.F) {
	// A deliberately tiny trace (short day, few servers) keeps the seed
	// corpus small enough for useful fuzz throughput.
	res, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: 4, Seed: 1},
		Game: workload.GameConfig{
			Phases: []workload.Phase{{Name: "replay", Duration: 4 * time.Minute, MeanGap: 10 * time.Second}},
			SizeKB: 1,
			MinGap: time.Second,
		},
		Days:         1,
		PollInterval: 5 * time.Second,
		ServerTTL:    15 * time.Second,
		Users:        4,
		Seed:         1,
	})
	if err != nil {
		f.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := trace.Write(&jsonl, res.Trace); err != nil {
		f.Fatal(err)
	}
	f.Add(jsonl.String())
	// A record flagged both provider and user view, naming no server.
	f.Add(jsonl.String() + `{"type":"poll","poll":{"day":0,"server":"ghost","poller":"u9","at":1000000000,"snapshot":1,"rtt":0,"provider":true,"user_view":true}}` + "\n")
	var logBuf bytes.Buffer
	if err := trace.WriteAccessLog(&logBuf, res.Trace); err != nil {
		f.Fatal(err)
	}
	f.Add(logBuf.String())
	f.Add("")
	f.Add("#cdnlog v1 days=1 daylen=1m0s poll=10s\n")
	f.Add(`{"type":"meta","meta":{"days":1,"poll_interval":1}}`)
	f.Add("{{{{")
	f.Fuzz(func(t *testing.T, input string) {
		tr, _, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		b, err := Infer(tr)
		if err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("Infer returned an invalid bundle: %v", err)
		}
		first, err := b.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		parsed, err := ParseBundle(first)
		if err != nil {
			t.Fatalf("ParseBundle of own Marshal: %v", err)
		}
		second, err := parsed.Marshal()
		if err != nil {
			t.Fatalf("second Marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("bundle round trip is not byte-stable")
		}
	})
}
