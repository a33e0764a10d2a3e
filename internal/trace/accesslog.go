package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"time"
)

// The access-log flavor is a line-oriented key=value format shaped like a
// CDN edge access log: a header line with the crawl parameters, one
// "#server" line per crawled server, then one "poll" line per record. It is
// the import format for operators who have edge logs rather than our JSONL
// schema. Meta fields the analyses re-derive (description, the generator's
// ServerTTL, the seed) are deliberately not representable: a real access
// log would not carry them either.
//
// Parsing is strict: unknown keys, duplicate keys, malformed values,
// out-of-order timestamps, blank lines, trailing tokens, and a truncated
// last line (missing the final newline) are all structured errors with line
// numbers — never panics, never silent drops. FuzzParseAccessLog locks that
// contract.
//
// Floats are written in shortest-round-trip form and durations in
// time.Duration syntax, so WriteAccessLog -> ParseAccessLog reproduces the
// representable part of a trace exactly.
//
// The parser works on the reader's buffer in place: lines are split into
// byte tokens with bytes.Fields, each line kind's keys are matched with a
// switch, and server and poller ids are interned per call. Values are
// decoded by strconv and time.ParseDuration, so the accepted inputs and the
// error texts are theirs.

const accessLogHeader = "#cdnlog v1"

// WriteAccessLog serializes a trace in the access-log line format. Records
// must already be in canonical (day, time) order — call SortRecords first —
// because the format, like a real log, promises monotone timestamps.
func WriteAccessLog(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "%s days=%d daylen=%s poll=%s\n",
		accessLogHeader, t.Meta.Days, t.Meta.DayLength, t.Meta.PollInterval)
	var line []byte
	for _, s := range t.Servers {
		line = append(line[:0], "#server id="...)
		line = append(line, s.ID...)
		line = strconv.AppendFloat(append(line, " lat="...), s.Lat, 'g', -1, 64)
		line = strconv.AppendFloat(append(line, " lon="...), s.Lon, 'g', -1, 64)
		line = strconv.AppendInt(append(line, " isp="...), int64(s.ISP), 10)
		line = strconv.AppendInt(append(line, " city="...), int64(s.City), 10)
		line = strconv.AppendFloat(append(line, " dist="...), s.DistanceKm, 'g', -1, 64)
		line = append(line, '\n')
		bw.Write(line)
	}
	lastDay, lastAt := 0, time.Duration(-1)
	for i, r := range t.Records {
		if r.Day < lastDay || (r.Day == lastDay && r.At < lastAt) {
			return fmt.Errorf("trace: access log record %d out of (day, time) order; SortRecords first", i)
		}
		lastDay, lastAt = r.Day, r.At
		line = strconv.AppendInt(append(line[:0], "poll day="...), int64(r.Day), 10)
		line = append(append(line, " at="...), r.At.String()...)
		line = append(append(line, " srv="...), r.Server...)
		line = append(append(line, " via="...), r.Poller...)
		line = append(append(line, " rtt="...), r.RTT.String()...)
		line = strconv.AppendInt(append(line, " snap="...), int64(r.Snapshot), 10)
		if r.Absent {
			line = append(line, " absent"...)
		}
		if r.Provider {
			line = append(line, " provider"...)
		}
		if r.UserView {
			line = append(line, " user"...)
		}
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// ParseAccessLog parses a trace written by WriteAccessLog (or an external
// log in the same format) and validates it.
func ParseAccessLog(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	t := &Trace{}
	ids := interner{}
	lineNo := 0
	sawHeader := false
	lastDay, lastAt := 0, time.Duration(-1)
	for {
		line, err := readLine(br)
		if err == io.EOF {
			if len(line) != 0 {
				return nil, fmt.Errorf("trace: access log line %d: truncated last line (missing newline)", lineNo+1)
			}
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: access log: %w", err)
		}
		lineNo++
		line = line[:len(line)-1]
		tokens := bytes.Fields(line)
		if len(tokens) == 0 {
			return nil, fmt.Errorf("trace: access log line %d: blank line", lineNo)
		}
		if !sawHeader {
			if !bytes.HasPrefix(line, []byte(accessLogHeader+" ")) {
				return nil, fmt.Errorf("trace: access log line %d: missing %q header", lineNo, accessLogHeader)
			}
			meta, err := parseLogHeader(bytes.Fields(line[len(accessLogHeader)+1:]))
			if err != nil {
				return nil, fmt.Errorf("trace: access log line %d: %w", lineNo, err)
			}
			t.Meta = meta
			sawHeader = true
			continue
		}
		switch string(tokens[0]) {
		case "#server":
			s, err := parseLogServer(tokens[1:], ids)
			if err != nil {
				return nil, fmt.Errorf("trace: access log line %d: %w", lineNo, err)
			}
			t.Servers = append(t.Servers, s)
		case "poll":
			rec, err := parseLogPoll(tokens[1:], ids)
			if err != nil {
				return nil, fmt.Errorf("trace: access log line %d: %w", lineNo, err)
			}
			if rec.Day < lastDay || (rec.Day == lastDay && rec.At < lastAt) {
				return nil, fmt.Errorf("trace: access log line %d: out-of-order timestamp (day %d at %v after day %d at %v)",
					lineNo, rec.Day, rec.At, lastDay, lastAt)
			}
			lastDay, lastAt = rec.Day, rec.At
			t.Records = append(t.Records, rec)
		default:
			return nil, fmt.Errorf("trace: access log line %d: unknown line kind %q", lineNo, tokens[0])
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("trace: access log: missing %q header", accessLogHeader)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// readLine returns the next line including its '\n', like ReadString, but
// in the reader's buffer when the line fits there; the bytes are valid until
// the next read. At end of input it returns the unterminated rest with
// io.EOF.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

// Each line kind maps its key names to bits with a switch; the bits seen so
// far reject a repeated key.
const (
	hDays = 1 << iota
	hDayLen
	hPoll
)

func headerBit(key []byte) uint16 {
	switch string(key) {
	case "days":
		return hDays
	case "daylen":
		return hDayLen
	case "poll":
		return hPoll
	}
	return 0
}

const (
	sID = 1 << iota
	sLat
	sLon
	sISP
	sCity
	sDist
)

func serverBit(key []byte) uint16 {
	switch string(key) {
	case "id":
		return sID
	case "lat":
		return sLat
	case "lon":
		return sLon
	case "isp":
		return sISP
	case "city":
		return sCity
	case "dist":
		return sDist
	}
	return 0
}

// Poll lines carry key=value fields and bare flags, which share one
// namespace for duplicate detection.
const (
	pDay = 1 << iota
	pAt
	pSrv
	pVia
	pRTT
	pSnap
	pAbsent
	pProvider
	pUser

	pFields = pAbsent - 1
)

func pollBit(name []byte) uint16 {
	switch string(name) {
	case "day":
		return pDay
	case "at":
		return pAt
	case "srv":
		return pSrv
	case "via":
		return pVia
	case "rtt":
		return pRTT
	case "snap":
		return pSnap
	case "absent":
		return pAbsent
	case "provider":
		return pProvider
	case "user":
		return pUser
	}
	return 0
}

// markField records key's bit in seen, rejecting unknown (bit 0) and
// repeated keys.
func markField(key []byte, bit uint16, seen *uint16) error {
	if bit == 0 {
		return fmt.Errorf("unknown field %q", key)
	}
	if *seen&bit != 0 {
		return fmt.Errorf("duplicate field %q", key)
	}
	*seen |= bit
	return nil
}

func parseLogHeader(tokens [][]byte) (Meta, error) {
	var m Meta
	var seen uint16
	for _, tok := range tokens {
		key, val, ok := bytes.Cut(tok, []byte("="))
		if !ok {
			return Meta{}, fmt.Errorf("stray token %q", tok)
		}
		bit := headerBit(key)
		if err := markField(key, bit, &seen); err != nil {
			return Meta{}, err
		}
		var err error
		switch bit {
		case hDays:
			m.Days, err = strconv.Atoi(string(val))
		case hDayLen:
			m.DayLength, err = time.ParseDuration(string(val))
		case hPoll:
			m.PollInterval, err = time.ParseDuration(string(val))
		}
		if err != nil {
			return Meta{}, fmt.Errorf("field %s: %w", key, err)
		}
	}
	if m.Days == 0 || m.PollInterval == 0 {
		return Meta{}, fmt.Errorf("header needs days and poll")
	}
	return m, nil
}

func parseLogServer(tokens [][]byte, ids interner) (ServerInfo, error) {
	var s ServerInfo
	var seen uint16
	for _, tok := range tokens {
		key, val, ok := bytes.Cut(tok, []byte("="))
		if !ok {
			return ServerInfo{}, fmt.Errorf("stray token %q", tok)
		}
		bit := serverBit(key)
		if err := markField(key, bit, &seen); err != nil {
			return ServerInfo{}, err
		}
		var err error
		switch bit {
		case sID:
			s.ID = ids.bytes(val)
		case sLat:
			s.Lat, err = strconv.ParseFloat(string(val), 64)
		case sLon:
			s.Lon, err = strconv.ParseFloat(string(val), 64)
		case sISP:
			s.ISP, err = strconv.Atoi(string(val))
		case sCity:
			s.City, err = strconv.Atoi(string(val))
		case sDist:
			s.DistanceKm, err = strconv.ParseFloat(string(val), 64)
		}
		if err != nil {
			return ServerInfo{}, fmt.Errorf("field %s: %w", key, err)
		}
	}
	if s.ID == "" {
		return ServerInfo{}, fmt.Errorf("#server line needs id")
	}
	return s, nil
}

func parseLogPoll(tokens [][]byte, ids interner) (PollRecord, error) {
	var rec PollRecord
	var seen uint16
	for _, tok := range tokens {
		key, val, ok := bytes.Cut(tok, []byte("="))
		if !ok {
			// A bare token repeating any name already seen, key or flag,
			// is a duplicate flag.
			bit := pollBit(tok)
			if seen&bit != 0 {
				return PollRecord{}, fmt.Errorf("duplicate flag %q", tok)
			}
			switch bit {
			case pAbsent:
				rec.Absent = true
			case pProvider:
				rec.Provider = true
			case pUser:
				rec.UserView = true
			default:
				return PollRecord{}, fmt.Errorf("unknown flag %q", tok)
			}
			seen |= bit
			continue
		}
		bit := pollBit(key) & pFields
		if err := markField(key, bit, &seen); err != nil {
			return PollRecord{}, err
		}
		var err error
		switch bit {
		case pDay:
			rec.Day, err = strconv.Atoi(string(val))
		case pAt:
			rec.At, err = time.ParseDuration(string(val))
		case pSrv:
			rec.Server = ids.bytes(val)
		case pVia:
			rec.Poller = ids.bytes(val)
		case pRTT:
			rec.RTT, err = time.ParseDuration(string(val))
		case pSnap:
			rec.Snapshot, err = strconv.Atoi(string(val))
		}
		if err != nil {
			return PollRecord{}, fmt.Errorf("field %s: %w", key, err)
		}
	}
	if rec.Server == "" || rec.Poller == "" {
		return PollRecord{}, fmt.Errorf("poll line needs srv and via")
	}
	if rec.Absent && rec.Snapshot != 0 {
		return PollRecord{}, fmt.Errorf("absent poll carries snapshot %d", rec.Snapshot)
	}
	return rec, nil
}
