package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// The JSONL format is one object per line, each tagged with a "type" field:
// exactly one "meta" line (first), then "server" lines, then "poll" lines.
// It is greppable, streams, and append-friendly for long crawls.
//
// Read decodes a poll line that is byte-for-byte in the canonical form
// Write emits (fixed key order, plain integers, escape-free ASCII strings,
// each set flag written as true) with a hand-written scanner, and every
// other line — meta and server lines, and any poll line spelled another
// way — through encoding/json. The scanner accepts only lines whose
// encoding/json decoding it reproduces exactly (FuzzReadPollLine checks
// this), so the accepted inputs, decoded values and error messages are
// those of encoding/json alone. Server and poller ids are interned per Read
// call, so a trace holds one copy of each id.
//
// Write mirrors Read: it appends a poll line whose ids need no escaping in
// that canonical form by hand, and encodes every other line — meta and
// server lines, and poll lines with other ids — with encoding/json. The
// hand-written lines are the bytes encoding/json writes for them
// (FuzzWritePollLine checks this), so the output is that of encoding/json
// alone.

type lineEnvelope struct {
	Type string `json:"type"`
}

type metaLine struct {
	Type string `json:"type"`
	Meta Meta   `json:"meta"`
}

type serverLine struct {
	Type   string     `json:"type"`
	Server ServerInfo `json:"server"`
}

type pollLine struct {
	Type string     `json:"type"`
	Poll PollRecord `json:"poll"`
}

// Write serializes a trace as JSONL.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(metaLine{Type: "meta", Meta: t.Meta}); err != nil {
		return fmt.Errorf("trace: write meta: %w", err)
	}
	for _, s := range t.Servers {
		if err := enc.Encode(serverLine{Type: "server", Server: s}); err != nil {
			return fmt.Errorf("trace: write server %s: %w", s.ID, err)
		}
	}
	for i := range t.Records {
		r := &t.Records[i]
		var err error
		if line, ok := appendPollLine(bw.AvailableBuffer(), r); ok {
			_, err = bw.Write(line)
		} else {
			err = enc.Encode(pollLine{Type: "poll", Poll: *r})
		}
		if err != nil {
			return fmt.Errorf("trace: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// appendPollLine appends r's poll line, newline included, in the canonical
// form scanPollLine reads, if both its ids are plain; otherwise it reports
// false and leaves the line to encoding/json.
func appendPollLine(b []byte, r *PollRecord) ([]byte, bool) {
	if !plainID(r.Server) || !plainID(r.Poller) {
		return b, false
	}
	b = append(b, `{"type":"poll","poll":{"day":`...)
	b = strconv.AppendInt(b, int64(r.Day), 10)
	b = append(b, `,"server":"`...)
	b = append(b, r.Server...)
	b = append(b, `","poller":"`...)
	b = append(b, r.Poller...)
	b = append(b, `","at":`...)
	b = strconv.AppendInt(b, int64(r.At), 10)
	b = append(b, `,"snapshot":`...)
	b = strconv.AppendInt(b, int64(r.Snapshot), 10)
	b = append(b, `,"rtt":`...)
	b = strconv.AppendInt(b, int64(r.RTT), 10)
	if r.Absent {
		b = append(b, `,"absent":true`...)
	}
	if r.Provider {
		b = append(b, `,"provider":true`...)
	}
	if r.UserView {
		b = append(b, `,"user_view":true`...)
	}
	return append(b, "}}\n"...), true
}

// plainID reports whether encoding/json writes s verbatim between quotes:
// printable ASCII other than '"' and '\', and other than '<', '>' and '&',
// which an Encoder escapes for HTML.
func plainID(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// Read parses a JSONL trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	t := &Trace{}
	ids := interner{}
	sawMeta := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if rec, ok := scanPollLine(line, ids); ok {
			t.Records = append(t.Records, rec)
			continue
		}
		var env lineEnvelope
		if err := json.Unmarshal(line, &env); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		switch env.Type {
		case "meta":
			if sawMeta {
				return nil, fmt.Errorf("trace: line %d: duplicate meta", lineNo)
			}
			var m metaLine
			if err := json.Unmarshal(line, &m); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			t.Meta = m.Meta
			sawMeta = true
		case "server":
			var s serverLine
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			t.Servers = append(t.Servers, s.Server)
		case "poll":
			var p pollLine
			if err := json.Unmarshal(line, &p); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			p.Poll.Server, p.Poll.Poller = ids.str(p.Poll.Server), ids.str(p.Poll.Poller)
			t.Records = append(t.Records, p.Poll)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown type %q", lineNo, env.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	if !sawMeta {
		return nil, errors.New("trace: missing meta line")
	}
	return t, nil
}

// interner hands out one shared string per distinct id.
type interner map[string]string

// bytes returns the interned copy of b; the lookup itself does not allocate.
func (in interner) bytes(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

// str returns the interned copy of s.
func (in interner) str(s string) string {
	if v, ok := in[s]; ok {
		return v
	}
	in[s] = s
	return s
}

// scanPollLine decodes line if it is a poll line in exactly the canonical
// form Write emits:
//
//	{"type":"poll","poll":{"day":D,"server":"S","poller":"P","at":A,"snapshot":N,"rtt":R[,"absent":true][,"provider":true][,"user_view":true]}}
//
// with plain decimal integers in range and strings of printable ASCII
// without '"' or '\'. Anything else reports false and is left to
// encoding/json.
func scanPollLine(line []byte, ids interner) (PollRecord, bool) {
	sc := pollScanner{b: line}
	var r PollRecord
	var server, poller []byte
	var day, snap, at, rtt int64
	ok := sc.lit(`{"type":"poll","poll":{"day":`) && sc.int(&day, strconv.IntSize) &&
		sc.lit(`,"server":`) && sc.str(&server) &&
		sc.lit(`,"poller":`) && sc.str(&poller) &&
		sc.lit(`,"at":`) && sc.int(&at, 64) &&
		sc.lit(`,"snapshot":`) && sc.int(&snap, strconv.IntSize) &&
		sc.lit(`,"rtt":`) && sc.int(&rtt, 64)
	if !ok {
		return PollRecord{}, false
	}
	r.Absent = sc.lit(`,"absent":true`)
	r.Provider = sc.lit(`,"provider":true`)
	r.UserView = sc.lit(`,"user_view":true`)
	if !sc.lit(`}}`) || sc.i != len(sc.b) {
		return PollRecord{}, false
	}
	r.Day, r.Snapshot = int(day), int(snap)
	r.At, r.RTT = time.Duration(at), time.Duration(rtt)
	r.Server, r.Poller = ids.bytes(server), ids.bytes(poller)
	return r, true
}

// pollScanner walks one line for scanPollLine and scanLogPollLine; a
// failed step does not advance it.
type pollScanner struct {
	b []byte
	i int
}

func (sc *pollScanner) lit(s string) bool {
	if !hasPrefix(sc.b[sc.i:], s) {
		return false
	}
	sc.i += len(s)
	return true
}

func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// int reads a JSON integer (optional '-', digits without leading zeros)
// that fits a signed integer of the given bit size. A fraction or exponent
// after it fails the literal the caller expects next.
func (sc *pollScanner) int(v *int64, bitSize int) bool {
	j := sc.i
	neg := j < len(sc.b) && sc.b[j] == '-'
	if neg {
		j++
	}
	start := j
	limit := uint64(1)<<(bitSize-1) - 1
	if neg {
		limit++
	}
	var n uint64
	for ; j < len(sc.b) && '0' <= sc.b[j] && sc.b[j] <= '9'; j++ {
		d := uint64(sc.b[j] - '0')
		if n > (limit-d)/10 {
			return false
		}
		n = n*10 + d
	}
	if j == start || (sc.b[start] == '0' && j-start > 1) {
		return false
	}
	*v = int64(n)
	if neg {
		*v = -*v // the minimum negates to itself, which is its value
	}
	sc.i = j
	return true
}

// str reads a JSON string of printable ASCII without escapes.
func (sc *pollScanner) str(v *[]byte) bool {
	if sc.i >= len(sc.b) || sc.b[sc.i] != '"' {
		return false
	}
	for j := sc.i + 1; j < len(sc.b); j++ {
		switch c := sc.b[j]; {
		case c == '"':
			*v = sc.b[sc.i+1 : j]
			sc.i = j + 1
			return true
		case c < 0x20 || c > 0x7e || c == '\\':
			return false
		}
	}
	return false
}
