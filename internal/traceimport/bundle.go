package traceimport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/workload"
)

// Summary holds the scalar estimates Infer derives from a trace. It is the
// human-readable half of a bundle: everything a reader needs to judge
// whether the inference looks sane before replaying it.
type Summary struct {
	// Servers is the number of crawled content servers.
	Servers int `json:"servers"`
	// Sites is the number of distinct deployment locations.
	Sites int `json:"sites"`
	// Users is the number of distinct user-perspective vantage points.
	Users int `json:"users"`
	// Days is the crawl length in days.
	Days int `json:"days"`
	// DayLength is the per-day crawl window.
	DayLength fault.Duration `json:"day_length"`
	// PollInterval is the inferred crawler cadence (modal gap between
	// consecutive polls of one server by one vantage point).
	PollInterval fault.Duration `json:"poll_interval"`
	// ServerTTL is the inferred CDN cache TTL (median spacing of observed
	// content-version changes per server).
	ServerTTL fault.Duration `json:"server_ttl"`
	// UpdatesPerDay is the mean observed content-version count per day.
	UpdatesPerDay float64 `json:"updates_per_day"`
	// UpdateMeanGap is DayLength / UpdatesPerDay — the mean inter-update
	// gap a replay should draw from.
	UpdateMeanGap fault.Duration `json:"update_mean_gap"`
	// RedirectFrac is the inferred per-visit redirect probability,
	// corrected for same-server redirects.
	RedirectFrac float64 `json:"redirect_frac"`
	// Absences is the number of per-server absence runs observed across
	// all crawl days (only day-0 runs become fault windows).
	Absences int `json:"absences"`
}

// Bundle is a complete inferred simulation spec: the scalar summary plus
// the population, server map, and fault schedule, each in the schema its
// home package already parses strictly. Marshal/ParseBundle round-trip
// byte-exactly, which the import smoke test relies on.
type Bundle struct {
	Summary    Summary              `json:"summary"`
	Population *workload.Population `json:"population"`
	ServerMap  *topology.ServerMap  `json:"server_map"`
	Faults     *fault.Spec          `json:"faults,omitempty"`
}

// Validate cross-checks the bundle: every section valid on its own, and
// the section sizes consistent with the summary.
func (b *Bundle) Validate() error {
	if b == nil {
		return fmt.Errorf("traceimport: nil bundle")
	}
	s := b.Summary
	if s.Servers <= 0 {
		return fmt.Errorf("traceimport: summary servers %d must be > 0", s.Servers)
	}
	if s.Sites <= 0 {
		return fmt.Errorf("traceimport: summary sites %d must be > 0", s.Sites)
	}
	if s.Users < 0 {
		return fmt.Errorf("traceimport: summary users %d must be >= 0", s.Users)
	}
	if s.Days <= 0 {
		return fmt.Errorf("traceimport: summary days %d must be > 0", s.Days)
	}
	if s.DayLength.D() <= 0 {
		return fmt.Errorf("traceimport: summary day_length %v must be > 0", s.DayLength.D())
	}
	if s.PollInterval.D() <= 0 {
		return fmt.Errorf("traceimport: summary poll_interval %v must be > 0", s.PollInterval.D())
	}
	if s.ServerTTL.D() <= 0 {
		return fmt.Errorf("traceimport: summary server_ttl %v must be > 0", s.ServerTTL.D())
	}
	if s.UpdatesPerDay <= 0 {
		return fmt.Errorf("traceimport: summary updates_per_day %v must be > 0", s.UpdatesPerDay)
	}
	if s.UpdateMeanGap.D() <= 0 {
		return fmt.Errorf("traceimport: summary update_mean_gap %v must be > 0", s.UpdateMeanGap.D())
	}
	if s.RedirectFrac < 0 || s.RedirectFrac > 1 {
		return fmt.Errorf("traceimport: summary redirect_frac %v outside [0, 1]", s.RedirectFrac)
	}
	if s.Absences < 0 {
		return fmt.Errorf("traceimport: summary absences %d must be >= 0", s.Absences)
	}
	if b.ServerMap == nil {
		return fmt.Errorf("traceimport: bundle has no server map")
	}
	if err := b.ServerMap.Validate(); err != nil {
		return fmt.Errorf("traceimport: %w", err)
	}
	if got := b.ServerMap.NumServers(); got != s.Servers {
		return fmt.Errorf("traceimport: server map has %d servers, summary says %d", got, s.Servers)
	}
	if got := len(b.ServerMap.Sites); got != s.Sites {
		return fmt.Errorf("traceimport: server map has %d sites, summary says %d", got, s.Sites)
	}
	if b.Population == nil {
		return fmt.Errorf("traceimport: bundle has no population")
	}
	if err := b.Population.Validate(); err != nil {
		return fmt.Errorf("traceimport: %w", err)
	}
	if got := len(b.Population.Servers); got != s.Servers {
		return fmt.Errorf("traceimport: population spans %d servers, summary says %d", got, s.Servers)
	}
	if got := b.Population.TotalUsers(); got != s.Users {
		return fmt.Errorf("traceimport: population holds %d users, summary says %d", got, s.Users)
	}
	if b.Faults != nil {
		if err := b.Faults.Validate(); err != nil {
			return fmt.Errorf("traceimport: %w", err)
		}
		for i, cr := range b.Faults.Crashes {
			if cr.Server >= s.Servers {
				return fmt.Errorf("traceimport: fault crash %d targets server %d of %d", i, cr.Server, s.Servers)
			}
		}
	}
	return nil
}

// ParseBundle parses and validates a JSON bundle. Parsing is strict:
// unknown fields, trailing data, and inconsistent bundles are errors,
// never panics.
func ParseBundle(data []byte) (*Bundle, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Bundle
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("traceimport: parse bundle: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("traceimport: parse bundle: trailing data after spec")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// Marshal serializes the bundle as indented JSON, the inverse of
// ParseBundle: Parse(Marshal(b)) reproduces b byte-exactly.
func (b *Bundle) Marshal() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// CrashWindows returns the inferred crash-recovery windows (empty when the
// trace showed no day-0 absence runs).
func (b *Bundle) CrashWindows() []fault.Crash {
	if b.Faults == nil {
		return nil
	}
	return b.Faults.Crashes
}

// GameConfig returns the replay update schedule: a single phase covering
// the crawl day with the inferred mean inter-update gap. The replay is
// statistical — it reproduces the update rate, not the paper's play/break
// structure, which a trace does not identify.
func (b *Bundle) GameConfig() workload.GameConfig {
	return workload.GameConfig{
		Phases: []workload.Phase{{
			Name:     "replay",
			Duration: b.Summary.DayLength.D(),
			MeanGap:  b.Summary.UpdateMeanGap.D(),
		}},
		SizeKB: 1,
		MinGap: time.Second,
	}
}

// Options materializes the bundle as simulation options: the exact server
// map as topology, the inferred TTLs, the replay game, the per-server user
// population, and the detected fault windows. The replay game is drawn
// with the run's seed, wherever core.WithSeed sits among the options.
func (b *Bundle) Options() ([]core.Option, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	topo, err := b.ServerMap.Topology()
	if err != nil {
		return nil, err
	}
	opts := []core.Option{
		core.WithTopology(topo),
		core.WithServerTTL(b.Summary.ServerTTL.D()),
		core.WithUserTTL(b.Summary.PollInterval.D()),
		core.WithGame(b.GameConfig()),
		core.WithPopulation(b.Population),
	}
	if b.Faults != nil && !b.Faults.Empty() {
		opts = append(opts, core.WithFaults(*b.Faults))
	}
	return opts, nil
}

// Input formats ReadTrace and LoadAny recognize.
const (
	FormatJSONL     = "jsonl"
	FormatAccessLog = "accesslog"
	FormatBundle    = "bundle"
)

// ReadTrace reads a crawl trace in either supported flavor, sniffing the
// format: access logs start with the "#cdnlog" header, everything else is
// treated as the JSONL schema. It returns the trace and the format name. The
// sniff peeks at the header, and the parser streams the rest of r, so the
// raw trace is never held in memory whole.
func ReadTrace(r io.Reader) (*trace.Trace, string, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(accessLogMagic))
	if err != nil && err != io.EOF {
		return nil, "", fmt.Errorf("traceimport: read trace: %w", err)
	}
	if string(head) == accessLogMagic {
		tr, err := trace.ParseAccessLog(br)
		if err != nil {
			return nil, "", err
		}
		return tr, FormatAccessLog, nil
	}
	tr, err := trace.Read(br)
	if err != nil {
		return nil, "", err
	}
	return tr, FormatJSONL, nil
}

// accessLogMagic opens every access log (its header line names a version
// after it).
const accessLogMagic = "#cdnlog"

// LoadTrace reads a trace file in either flavor.
func LoadTrace(path string) (*trace.Trace, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", fmt.Errorf("traceimport: %w", err)
	}
	defer f.Close()
	return ReadTrace(f)
}

// ImportAny resolves importable bytes of any supported kind into a bundle,
// returning the kind that matched: an already-inferred bundle (a JSON object
// the strict bundle parser accepts — an access log starts with "#", a JSONL
// trace's first line carries a "type" field the bundle schema rejects, and
// an indented bundle's first line is a lone "{" the JSONL parser rejects, so
// the formats cannot be confused), or a trace in either flavor ReadTrace
// recognizes. Traces are run through Infer.
func ImportAny(data []byte) (*Bundle, string, error) {
	if b, err := ParseBundle(data); err == nil {
		return b, FormatBundle, nil
	}
	tr, format, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		return nil, "", fmt.Errorf("traceimport: input is neither a bundle nor a trace: %w", err)
	}
	b, err := Infer(tr)
	if err != nil {
		return nil, "", err
	}
	return b, format, nil
}

// LoadAny loads an importable file of any kind ImportAny recognizes.
func LoadAny(path string) (*Bundle, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("traceimport: %w", err)
	}
	b, format, err := ImportAny(data)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return b, format, nil
}
