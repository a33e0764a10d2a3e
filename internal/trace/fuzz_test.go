package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
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

// plainIDs are ids Write's hand-written poll line takes; escapedIDs are
// ids on its edges that it leaves to encoding/json: '"', '\', the HTML
// characters '<', '>' and '&', control bytes, DEL, non-ASCII text (U+2028
// among it) and invalid UTF-8.
var (
	plainIDs   = []string{"server-0001", "pl-0042", "origin", "user-007", " ~!#$%'()*+,-./:;=?@[]^_`{|}", ""}
	escapedIDs = []string{
		"<s001>", "s&001", `s"001`, `s\001`, "s\t001", "\x00", "s\x1f", "s\x7f",
		"s\u00e9001", "s\u2028", "s\xff001", "\xc3", "\xed\xa0\x80",
	}
	writeIDs = append(append([]string(nil), plainIDs...), escapedIDs...)
)

// checkWritePollLine requires the poll line Write emits for r to be the
// reference bytes: the line json.Encoder writes for r.
func checkWritePollLine(tb testing.TB, r PollRecord) {
	tb.Helper()
	var got, want bytes.Buffer
	if err := Write(&got, &Trace{Records: []PollRecord{r}}); err != nil {
		tb.Fatal(err)
	}
	if err := json.NewEncoder(&want).Encode(pollLine{Type: "poll", Poll: r}); err != nil {
		tb.Fatal(err)
	}
	_, line, _ := bytes.Cut(got.Bytes(), []byte("\n")) // past the meta line
	if !bytes.Equal(line, want.Bytes()) {
		tb.Fatalf("Write wrote %q, encoding/json %q", line, want.Bytes())
	}
}

// recordOf builds a poll record with flag bits 1, 2 and 4 setting Absent,
// Provider and UserView.
func recordOf(day int, server, poller string, at int64, snapshot int, rtt int64, flags uint8) PollRecord {
	return PollRecord{
		Day: day, Server: server, Poller: poller, At: time.Duration(at),
		Snapshot: snapshot, RTT: time.Duration(rtt),
		Absent: flags&1 != 0, Provider: flags&2 != 0, UserView: flags&4 != 0,
	}
}

// FuzzWritePollLine is the differential check on Write's hand-written poll
// lines: for any record, Write must emit the bytes encoding/json does.
func FuzzWritePollLine(f *testing.F) {
	for i, id := range writeIDs {
		f.Add(i, id, "p01", int64(12e9), 5, int64(81234567), uint8(i%8))
		f.Add(-i, "s001", id, int64(-i), -i, int64(i), uint8(7-i%8))
	}
	f.Add(math.MaxInt, "s001", "p01", int64(math.MaxInt64), math.MinInt, int64(math.MinInt64), uint8(0))
	f.Add(math.MinInt, "s001", "p01", int64(math.MinInt64), math.MaxInt, int64(math.MaxInt64), uint8(255))
	f.Fuzz(func(t *testing.T, day int, server, poller string, at int64, snapshot int, rtt int64, flags uint8) {
		checkWritePollLine(t, recordOf(day, server, poller, at, snapshot, rtt, flags))
	})
}

// TestWriteMatchesEncodingJSON holds Write's poll lines to encoding/json's
// bytes over every pair of writeIDs, extreme and random integers and all
// eight flag combinations, and requires exactly the records whose ids are
// both in plainIDs to take the hand-written path.
func TestWriteMatchesEncodingJSON(t *testing.T) {
	ints := []int64{0, 1, -1, 9, 10, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	pick := func() int64 {
		if rng.Intn(2) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return (rng.Int63() >> rng.Intn(63)) * int64(1-2*rng.Intn(2))
	}
	for i, server := range writeIDs {
		for j, poller := range writeIDs {
			for flags := uint8(0); flags < 8; flags++ {
				r := recordOf(int(pick()), server, poller, pick(), int(pick()), pick(), flags)
				checkWritePollLine(t, r)
				_, fast := appendPollLine(nil, &r)
				if plain := i < len(plainIDs) && j < len(plainIDs); fast != plain {
					t.Fatalf("ids %q, %q: hand-written path %v, want %v", server, poller, fast, plain)
				}
			}
		}
	}
}

// FuzzScanLogPollLine is the differential check on ParseAccessLog's
// canonical poll-line scanner: whatever single line it accepts, the
// tokenizing path (bytes.Fields, then parseLogPoll) must decode to the very
// same record. The seeds sit on the edges of the canonical form; the
// scanner must turn each of them down or agree.
func FuzzScanLogPollLine(f *testing.F) {
	const canon = "poll day=1 at=3h25m12.345678901s srv=s001 via=p01 rtt=81.234567ms snap=5"
	field := func(old, new string) string { return strings.Replace(canon, old, new, 1) }
	f.Add(canon)
	f.Add(canon + " absent provider user")
	f.Add(field("rtt=81.234567ms", "rtt=999.5µs"))
	f.Add(field("rtt=81.234567ms", "rtt=850ns"))
	f.Add(field("rtt=81.234567ms", "rtt=0s"))
	f.Add(field("at=3h25m12.345678901s", "at=0s"))
	f.Add(field("at=3h25m12.345678901s", "at=1.000000001s"))
	f.Add(field("at=3h25m12.345678901s", "at=1.0000000001s"))
	f.Add(field("at=3h25m12.345678901s", "at=2562047h47m16.854775807s"))
	f.Add(field("at=3h25m12.345678901s", "at=2562047h47m16.854775808s"))
	f.Add(field("at=3h25m12.345678901s", "at=-2562047h47m16.854775808s"))
	f.Add(field("at=3h25m12.345678901s", "at=-2562047h47m16.854775809s"))
	f.Add(field("at=3h25m12.345678901s", "at=01s"))
	f.Add(field("at=3h25m12.345678901s", "at=.5s"))
	f.Add(field("at=3h25m12.345678901s", "at=1.s"))
	f.Add(field("at=3h25m12.345678901s", "at=-1s"))
	f.Add(field("at=3h25m12.345678901s", "at=1.5h"))
	f.Add(field("at=3h25m12.345678901s", "at=1s1h"))
	f.Add(field("at=3h25m12.345678901s", "at=1m1ms"))
	f.Add(field("at=3h25m12.345678901s", "at=1us"))
	f.Add(field("at=3h25m12.345678901s", "at=1μs"))
	f.Add(field("at=3h25m12.345678901s", "at=0"))
	f.Add(field("day=1", "day=-0"))
	f.Add(field("day=1", "day=+1"))
	f.Add(field("day=1", "day=9223372036854775808"))
	f.Add(field(" srv=", "\tsrv="))
	f.Add(canon + " ")
	f.Add(canon + "\r")
	f.Add(canon + " provider absent")
	f.Add(canon + " user user")
	f.Add(canon + " users")
	f.Add(field("srv=s001", "srv=a=b"))
	f.Add(field("srv=s001", "srv=s\xc3\xa9001"))
	f.Add(field("srv=s001", "srv=s\u00a0001"))
	f.Add(field("srv=s001", "srv="))
	f.Add(field("snap=5", "snap=3") + " absent")
	f.Add(field("snap=5", "snap=0") + " absent")
	f.Fuzz(func(t *testing.T, line string) {
		got, ok := scanLogPollLine([]byte(line), interner{})
		if !ok {
			return
		}
		tokens := bytes.Fields([]byte(line))
		if len(tokens) == 0 || string(tokens[0]) != "poll" {
			t.Fatalf("scanner accepted a line that is not a poll line: %q", line)
		}
		want, err := parseLogPoll(tokens[1:], interner{})
		if err != nil {
			t.Fatalf("scanner accepted a line the tokenizing path rejects (%v): %q", err, line)
		}
		if got != want {
			t.Fatalf("scanner decoded %+v, tokenizing path %+v: %q", got, want, line)
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
