// Package trace defines the crawl-trace schema shared by the synthetic
// trace generator and the Section-3 analysis pipeline, plus its two
// encodings: JSONL and the #cdnlog access-log line format.
package trace

import (
	"fmt"
	"sort"
	"time"
)

// ServerInfo describes one crawled content server.
type ServerInfo struct {
	ID   string  `json:"id"`
	Lat  float64 `json:"lat"`
	Lon  float64 `json:"lon"`
	ISP  int     `json:"isp"`
	City int     `json:"city"`
	// DistanceKm is the great-circle distance to the content provider.
	DistanceKm float64 `json:"distance_km"`
}

// PollRecord is one poll of one server by one vantage point. Server-
// perspective records have a fixed Poller per server; user-perspective
// records have a fixed Poller (the user) and a varying Server (redirection).
type PollRecord struct {
	Day    int    `json:"day"`
	Server string `json:"server"`
	Poller string `json:"poller"`
	// At is the poll time relative to the day's crawl start, on the
	// crawler's reference clock.
	At time.Duration `json:"at"`
	// Snapshot is the content version observed; 0 means no content yet.
	Snapshot int `json:"snapshot"`
	// RTT is the poll round-trip time.
	RTT time.Duration `json:"rtt"`
	// Absent marks a poll that got no response (server failed/overloaded).
	// Absent records carry Snapshot 0.
	Absent bool `json:"absent,omitempty"`
	// Provider marks polls aimed at the content provider's origin servers
	// rather than CDN servers (Section 3.4.2).
	Provider bool `json:"provider,omitempty"`
	// UserView marks records from the user-perspective crawl
	// (Section 3.3); Poller identifies the user. No record is both a
	// provider poll and a user view.
	UserView bool `json:"user_view,omitempty"`
}

// Meta captures the crawl parameters so analyses can interpret the records.
type Meta struct {
	Description  string        `json:"description"`
	Days         int           `json:"days"`
	PollInterval time.Duration `json:"poll_interval"`
	DayLength    time.Duration `json:"day_length"`
	// ServerTTL is the generator's cache TTL. Real crawls would not know
	// it; the analysis re-derives it (Section 3.4.1) and tests compare.
	ServerTTL time.Duration `json:"server_ttl,omitempty"`
	Seed      int64         `json:"seed,omitempty"`
}

// Trace is a complete crawl data set.
type Trace struct {
	Meta    Meta
	Servers []ServerInfo
	Records []PollRecord
}

// Validate checks internal consistency: every record must reference a known
// server (or the provider), lie inside a crawl day, be at most one of a
// provider poll and a user view, and have sane fields.
func (t *Trace) Validate() error {
	if t.Meta.Days <= 0 {
		return fmt.Errorf("trace: non-positive day count %d", t.Meta.Days)
	}
	if t.Meta.PollInterval <= 0 {
		return fmt.Errorf("trace: non-positive poll interval %v", t.Meta.PollInterval)
	}
	known := make(map[string]bool, len(t.Servers))
	for _, s := range t.Servers {
		if s.ID == "" {
			return fmt.Errorf("trace: server with empty id")
		}
		if known[s.ID] {
			return fmt.Errorf("trace: duplicate server id %q", s.ID)
		}
		known[s.ID] = true
	}
	for i, r := range t.Records {
		if r.Day < 0 || r.Day >= t.Meta.Days {
			return fmt.Errorf("trace: record %d day %d outside [0,%d)", i, r.Day, t.Meta.Days)
		}
		if r.Provider && r.UserView {
			return fmt.Errorf("trace: record %d is both a provider poll and a user view", i)
		}
		if !r.Provider && !known[r.Server] {
			return fmt.Errorf("trace: record %d references unknown server %q", i, r.Server)
		}
		if r.At < 0 || (t.Meta.DayLength > 0 && r.At > t.Meta.DayLength) {
			return fmt.Errorf("trace: record %d time %v outside day", i, r.At)
		}
		if r.Snapshot < 0 {
			return fmt.Errorf("trace: record %d negative snapshot", i)
		}
		if r.Absent && r.Snapshot != 0 {
			return fmt.Errorf("trace: record %d absent but carries snapshot %d", i, r.Snapshot)
		}
	}
	return nil
}

// SortRecords orders records by (day, time, server, poller) in place, the
// canonical order the analyses assume.
func (t *Trace) SortRecords() {
	sort.Slice(t.Records, func(i, j int) bool { return recordLess(&t.Records[i], &t.Records[j]) })
}

func recordLess(a, b *PollRecord) bool {
	if a.Day != b.Day {
		return a.Day < b.Day
	}
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Server != b.Server {
		return a.Server < b.Server
	}
	return a.Poller < b.Poller
}

// Merge combines multiple traces into one multi-day trace: the second
// trace's days follow the first's, and so on. Traces must agree on poll
// interval and day length; server sets are unioned (duplicate ids must
// describe identical servers). Useful for assembling a long crawl from
// per-day capture files.
func Merge(traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: nothing to merge")
	}
	out := &Trace{Meta: traces[0].Meta}
	out.Meta.Days = 0
	seen := make(map[string]ServerInfo)
	for ti, t := range traces {
		if t.Meta.PollInterval != out.Meta.PollInterval || t.Meta.DayLength != out.Meta.DayLength {
			return nil, fmt.Errorf("trace: merge input %d has mismatched poll interval or day length", ti)
		}
		for _, s := range t.Servers {
			if prev, ok := seen[s.ID]; ok {
				if prev != s {
					return nil, fmt.Errorf("trace: server %q differs across merge inputs", s.ID)
				}
				continue
			}
			seen[s.ID] = s
			out.Servers = append(out.Servers, s)
		}
		offset := out.Meta.Days
		for _, r := range t.Records {
			r.Day += offset
			out.Records = append(out.Records, r)
		}
		out.Meta.Days += t.Meta.Days
	}
	out.SortRecords()
	return out, out.Validate()
}
