package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzRead exercises the JSONL reader against arbitrary input: it must
// never panic, and anything it accepts must round-trip through Write.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add(`{"type":"meta","meta":{"days":1,"poll_interval":1}}`)
	f.Add(`{"type":"poll","poll":{"server":"x"}}`)
	f.Add("{{{{")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of own Write output: %v", err)
		}
		if len(again.Records) != len(tr.Records) || len(again.Servers) != len(tr.Servers) {
			t.Fatalf("round trip changed sizes: %d/%d vs %d/%d",
				len(tr.Records), len(tr.Servers), len(again.Records), len(again.Servers))
		}
	})
}

// FuzzReadPollLine is the differential check on Read's canonical poll-line
// scanner: whatever single line it accepts, encoding/json must decode to a
// "poll" envelope holding the very same record. The seeds sit on the edges
// of the canonical form; the scanner must turn each of them down or agree.
func FuzzReadPollLine(f *testing.F) {
	const canon = `{"type":"poll","poll":{"day":1,"server":"s001","poller":"p01","at":12000000000,"snapshot":5,"rtt":81234567}}`
	field := func(old, new string) string { return strings.Replace(canon, old, new, 1) }
	f.Add(canon)
	f.Add(field(`}}`, `,"absent":true,"provider":true,"user_view":true}}`))
	f.Add(field(`"day":1`, `"day":-0`))
	f.Add(field(`"day":1`, `"day":01`))
	f.Add(field(`"at":12000000000`, `"at":9223372036854775807`))
	f.Add(field(`"at":12000000000`, `"at":9223372036854775808`))
	f.Add(field(`"at":12000000000`, `"at":-9223372036854775808`))
	f.Add(field(`"at":12000000000`, `"at":-9223372036854775809`))
	f.Add(field(`"snapshot":5`, `"snapshot":5.0`))
	f.Add(field(`"snapshot":5`, `"snapshot":5e0`))
	f.Add(field(`"s001"`, `"\u003cs001\u003e"`))
	f.Add(field(`"s001"`, `"<s&001>"`))
	f.Add(field(`"s001"`, `"s\"001"`))
	f.Add(field(`"s001"`, "\"s\xc3\xa9001\""))
	f.Add(field(`"s001"`, "\"s\xff001\""))
	f.Add(field(`"s001"`, "\"s\t001\""))
	f.Add(canon + "\r")
	f.Add(canon + " ")
	f.Add(`{"poll":{"day":1,"server":"s001","poller":"p01","at":12000000000,"snapshot":5,"rtt":81234567},"type":"poll"}`)
	f.Add(field(`"day":1,"server":"s001"`, `"server":"s001","day":1`))
	f.Add(field(`}}`, `,"cache":"hit"}}`))
	f.Add(field(`}}`, `,"absent":false}}`))
	f.Add(field(`}}`, `,"user_view":true,"absent":true}}`))
	f.Add(field(`}}`, `,"absent":true,"absent":true}}`))
	f.Add(field(`"type":"poll"`, `"type":"meta"`))
	f.Fuzz(func(t *testing.T, line string) {
		got, ok := scanPollLine([]byte(line), interner{})
		if !ok {
			return
		}
		var want pollLine
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("scanner accepted a line encoding/json rejects (%v): %q", err, line)
		}
		if want.Type != "poll" {
			t.Fatalf("scanner accepted envelope type %q: %q", want.Type, line)
		}
		if got != want.Poll {
			t.Fatalf("scanner decoded %+v, encoding/json %+v: %q", got, want.Poll, line)
		}
	})
}

// FuzzParseAccessLog exercises the access-log parser against arbitrary
// input: it must never panic, and anything it accepts must round-trip
// through WriteAccessLog byte-exactly (the accepted trace is sorted and
// fully representable by construction).
func FuzzParseAccessLog(f *testing.F) {
	var seed bytes.Buffer
	st := sampleTrace()
	st.SortRecords()
	if err := WriteAccessLog(&seed, st); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("#cdnlog v1 days=1 daylen=1m0s poll=10s\n")
	f.Add("#cdnlog v1 days=1 daylen=1m0s poll=10s\n#server id=a\npoll day=0 at=1s srv=a via=p rtt=1ms snap=0\n")
	f.Add("#cdnlog v1 days=1 poll=10s days=2\n")
	f.Add("poll day=0\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseAccessLog(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteAccessLog(&buf, tr); err != nil {
			t.Fatalf("WriteAccessLog after successful parse: %v", err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		again, err := ParseAccessLog(&buf)
		if err != nil {
			t.Fatalf("ParseAccessLog of own output: %v", err)
		}
		var second bytes.Buffer
		if err := WriteAccessLog(&second, again); err != nil {
			t.Fatalf("WriteAccessLog second pass: %v", err)
		}
		if !bytes.Equal(first, second.Bytes()) {
			t.Fatal("access log round trip is not byte-stable")
		}
	})
}

// FuzzReadCSV exercises the CSV record reader the same way.
func FuzzReadCSV(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteCSV(&seed, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("day,server\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ReadCSVRecords(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, &Trace{Records: recs}); err != nil {
			t.Fatalf("WriteCSV after successful read: %v", err)
		}
		again, err := ReadCSVRecords(&buf)
		if err != nil {
			t.Fatalf("ReadCSVRecords of own output: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed count: %d vs %d", len(recs), len(again))
		}
	})
}
