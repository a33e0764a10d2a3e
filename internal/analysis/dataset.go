// Package analysis implements the paper's Section-3 measurement analytics
// as pure functions of a crawl trace: inconsistency lengths via the
// alpha/beta method, user-observed consistency, cause breakdowns (TTL,
// provider, ISP, distance, absences), TTL inference by recursive refinement,
// and the multicast-tree existence tests.
package analysis

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cdnconsistency/internal/trace"
)

// Dataset wraps a trace with the indexes the analyses share. Build one with
// NewDataset and reuse it across analyses; construction sorts records and
// computes per-day first-appearance (alpha) tables.
type Dataset struct {
	Trace *trace.Trace

	// Per day, sorted by time.
	serverRecs   [][]trace.PollRecord
	providerRecs [][]trace.PollRecord
	userRecs     [][]trace.PollRecord

	// alphas[day][snapshot] is the first time the snapshot was observed
	// on any content server that day — the paper's alpha_Ci (Section 3.1:
	// with thousands of polled servers, the first observation approximates
	// the provider's update time).
	alphas []map[int]time.Duration
	// alphaOrder[day] lists snapshot ids observed that day in ascending
	// order, for "next snapshot" lookups.
	alphaOrder [][]int

	// episodeCache memoizes PerServerInconsistency per day and servers
	// holds the lazily built per-server index of each day. episodeMu
	// guards both: a Dataset is otherwise read-only after NewDataset, and
	// the figure generators read one concurrently.
	episodeMu    sync.Mutex
	episodeCache []map[string][]float64
	servers      []*serverIndex
}

// serverIndex splits one day's content-server records per server, so that
// scoped analyses combine per-server tables instead of re-filtering every
// record of the day.
type serverIndex struct {
	// ids lists the servers with records that day, sorted.
	ids []string
	// recs[i] holds ids[i]'s records in time order.
	recs [][]trace.PollRecord
	// alphas[i] is ids[i]'s own first-appearance table (computeAlphas).
	alphas []map[int]time.Duration
}

// newServerIndex indexes one day's content-server records. The per-server
// lists are exact-size windows of one backing array, filled in record order
// so each stays in time order.
func newServerIndex(records []trace.PollRecord) *serverIndex {
	count := make(map[string]int)
	for _, r := range records {
		count[r.Server]++
	}
	idx := &serverIndex{ids: make([]string, 0, len(count))}
	for id := range count {
		idx.ids = append(idx.ids, id)
	}
	sort.Strings(idx.ids)
	all := make([]trace.PollRecord, len(records))
	slot := make(map[string]int, len(idx.ids))
	idx.recs = make([][]trace.PollRecord, len(idx.ids))
	off := 0
	for i, id := range idx.ids {
		slot[id] = i
		idx.recs[i] = all[off : off : off+count[id]]
		off += count[id]
	}
	for _, r := range records {
		i := slot[r.Server]
		idx.recs[i] = append(idx.recs[i], r)
	}
	idx.alphas = make([]map[int]time.Duration, len(idx.ids))
	for i, recs := range idx.recs {
		idx.alphas[i] = computeAlphas(recs)
	}
	return idx
}

// serverIndexLocked returns day's per-server index, building it on first
// use; the caller holds episodeMu.
func (d *Dataset) serverIndexLocked(day int) *serverIndex {
	if d.servers == nil {
		d.servers = make([]*serverIndex, d.Days())
	}
	if d.servers[day] == nil {
		d.servers[day] = newServerIndex(d.serverRecs[day])
	}
	return d.servers[day]
}

func (d *Dataset) serverIndex(day int) *serverIndex {
	d.episodeMu.Lock()
	defer d.episodeMu.Unlock()
	return d.serverIndexLocked(day)
}

// NewDataset indexes a trace. The trace must pass Validate.
func NewDataset(tr *trace.Trace) (*Dataset, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	tr.SortRecords()
	d := &Dataset{
		Trace:        tr,
		serverRecs:   make([][]trace.PollRecord, tr.Meta.Days),
		providerRecs: make([][]trace.PollRecord, tr.Meta.Days),
		userRecs:     make([][]trace.PollRecord, tr.Meta.Days),
		alphas:       make([]map[int]time.Duration, tr.Meta.Days),
		alphaOrder:   make([][]int, tr.Meta.Days),
	}
	for _, r := range tr.Records {
		switch {
		case r.Provider:
			d.providerRecs[r.Day] = append(d.providerRecs[r.Day], r)
		case r.UserView:
			d.userRecs[r.Day] = append(d.userRecs[r.Day], r)
		default:
			d.serverRecs[r.Day] = append(d.serverRecs[r.Day], r)
		}
	}
	for day := 0; day < tr.Meta.Days; day++ {
		d.alphas[day] = computeAlphas(d.serverRecs[day])
		d.alphaOrder[day] = sortedSnapshots(d.alphas[day])
	}
	return d, nil
}

// Days returns the number of crawl days.
func (d *Dataset) Days() int { return d.Trace.Meta.Days }

// computeAlphas maps each snapshot to its first appearance time in records.
// Absent records never carry snapshots, so they are skipped implicitly by
// the Snapshot > 0 check.
func computeAlphas(records []trace.PollRecord) map[int]time.Duration {
	alphas := make(map[int]time.Duration)
	for _, r := range records {
		if r.Snapshot <= 0 {
			continue
		}
		if cur, ok := alphas[r.Snapshot]; !ok || r.At < cur {
			alphas[r.Snapshot] = r.At
		}
	}
	return alphas
}

func sortedSnapshots(alphas map[int]time.Duration) []int {
	out := make([]int, 0, len(alphas))
	for s := range alphas {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// nextObserved returns the smallest observed snapshot id greater than s,
// or 0 if none.
func nextObserved(order []int, s int) int {
	i := sort.SearchInts(order, s+1)
	if i == len(order) {
		return 0
	}
	return order[i]
}

// RequestInconsistency is the paper's alpha/beta inconsistency measure
// underlying Figures 3, 5, 7 and 9. For each update Ci and each server, the
// inconsistency length is the catch-up delay: the time from Ci's first
// appearance anywhere (alpha_Ci) until the server first serves a snapshot
// >= Ci — equivalently Max{beta(Ci-1, sn) - alpha_Ci} per Section 3.1. A
// server that already shows Ci when it appears contributes a fresh (zero)
// episode. Under a TTL cache these delays are uniform on [0, TTL], which is
// what the TTL-inference of Section 3.4.1 exploits.
type RequestInconsistency struct {
	// Lengths holds the positive inconsistency lengths in seconds.
	Lengths []float64
	// Fresh counts (server, update) episodes with zero delay.
	Fresh int
	// Total counts all episodes evaluated.
	Total int
}

// Mean returns the mean of the positive inconsistency lengths, or 0.
func (ri RequestInconsistency) Mean() float64 {
	if len(ri.Lengths) == 0 {
		return 0
	}
	var sum float64
	for _, l := range ri.Lengths {
		sum += l
	}
	return sum / float64(len(ri.Lengths))
}

// inconsistencyOf is the instantaneous per-record staleness: for a record
// showing snapshot Ci at time t, it is t - alpha(C_next) when a newer
// snapshot had already appeared, else 0. The boolean reports whether the
// record carried content at all. This per-poll view drives the
// instantaneous measures (Figure 4(b), absence proximity); the headline
// inconsistency lengths use the episode measure below.
func inconsistencyOf(r trace.PollRecord, alphas map[int]time.Duration, order []int) (float64, bool) {
	if r.Absent || r.Snapshot <= 0 {
		return 0, false
	}
	next := nextObserved(order, r.Snapshot)
	if next == 0 {
		return 0, true // newest observed snapshot: fresh
	}
	alphaNext := alphas[next]
	if r.At <= alphaNext {
		return 0, true
	}
	return (r.At - alphaNext).Seconds(), true
}

// episodeLengths computes, for one observer's time-ordered records, the
// catch-up delay for every update in the alpha order. An update the
// observer never catches up to (end of trace) contributes nothing.
// Negative delays (possible under scoped alphas when the observer itself
// defines the global first appearance) count as fresh.
func episodeLengths(records []trace.PollRecord, alphas map[int]time.Duration, order []int) RequestInconsistency {
	var out RequestInconsistency
	ri := 0
	for _, snap := range order {
		alpha := alphas[snap]
		// Advance to the first content-bearing record showing >= snap.
		for ri < len(records) && (records[ri].Absent || records[ri].Snapshot < snap) {
			ri++
		}
		if ri == len(records) {
			break
		}
		out.Total++
		delay := (records[ri].At - alpha).Seconds()
		if delay <= 0 {
			out.Fresh++
		} else {
			out.Lengths = append(out.Lengths, delay)
		}
	}
	return out
}

// groupByObserver splits records into per-observer time-ordered lists.
// Content servers are keyed by server id; provider polls by poller id
// (multiple vantage points watch the same origin).
func groupByObserver(records []trace.PollRecord) map[string][]trace.PollRecord {
	out := make(map[string][]trace.PollRecord)
	for _, r := range records {
		key := r.Server
		if r.Provider {
			key = r.Poller
		}
		out[key] = append(out[key], r)
	}
	return out
}

// add merges another measure into ri.
func (ri *RequestInconsistency) add(o RequestInconsistency) {
	ri.Lengths = append(ri.Lengths, o.Lengths...)
	ri.Fresh += o.Fresh
	ri.Total += o.Total
}

// collectInconsistencies runs the episode measure over every observer in
// records, in observer-id order, against the given alpha scope.
func collectInconsistencies(records []trace.PollRecord, alphas map[int]time.Duration, order []int) RequestInconsistency {
	grouped := groupByObserver(records)
	keys := make([]string, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out RequestInconsistency
	for _, k := range keys {
		out.add(episodeLengths(grouped[k], alphas, order))
	}
	return out
}

// RequestInconsistencies computes the Figure-3 measure for one day over all
// content servers, using the global alpha table.
func (d *Dataset) RequestInconsistencies(day int) (RequestInconsistency, error) {
	if err := d.checkDay(day); err != nil {
		return RequestInconsistency{}, err
	}
	idx := d.serverIndex(day)
	var out RequestInconsistency
	for _, recs := range idx.recs {
		out.add(episodeLengths(recs, d.alphas[day], d.alphaOrder[day]))
	}
	return out, nil
}

// RequestInconsistenciesAll merges every day's Figure-3 measure.
func (d *Dataset) RequestInconsistenciesAll() RequestInconsistency {
	var out RequestInconsistency
	for day := 0; day < d.Days(); day++ {
		ri, _ := d.RequestInconsistencies(day)
		out.add(ri)
	}
	return out
}

// ProviderInconsistencies computes the Figure-7 measure: staleness of the
// provider's own answers, scored against the provider records' alpha table.
func (d *Dataset) ProviderInconsistencies(day int) (RequestInconsistency, error) {
	if err := d.checkDay(day); err != nil {
		return RequestInconsistency{}, err
	}
	alphas := computeAlphas(d.providerRecs[day])
	order := sortedSnapshots(alphas)
	return collectInconsistencies(d.providerRecs[day], alphas, order), nil
}

// ScopedInconsistencies computes request inconsistency for records of the
// given servers, with alpha computed from alphaScope servers. Passing the
// same set for both yields the paper's inner-cluster measure (Figure 5);
// passing "all other clusters" as the scope yields the inter-ISP measure
// (Figure 9(c)).
func (d *Dataset) ScopedInconsistencies(day int, servers, alphaScope map[string]bool) (RequestInconsistency, error) {
	if err := d.checkDay(day); err != nil {
		return RequestInconsistency{}, err
	}
	idx := d.serverIndex(day)
	// The scope's first appearance of a snapshot is the earliest among its
	// servers' own first appearances.
	alphas := make(map[int]time.Duration)
	for i, id := range idx.ids {
		if !alphaScope[id] {
			continue
		}
		for snap, at := range idx.alphas[i] {
			if cur, ok := alphas[snap]; !ok || at < cur {
				alphas[snap] = at
			}
		}
	}
	order := sortedSnapshots(alphas)
	var out RequestInconsistency
	for i, id := range idx.ids {
		if servers[id] {
			out.add(episodeLengths(idx.recs[i], alphas, order))
		}
	}
	return out, nil
}

// PerServerInconsistency aggregates one day's episode inconsistencies per
// server (global alpha scope). The map holds each server's positive episode
// lengths in seconds; servers whose episodes were all fresh map to an empty
// slice. Results are cached on the Dataset.
func (d *Dataset) PerServerInconsistency(day int) (map[string][]float64, error) {
	if err := d.checkDay(day); err != nil {
		return nil, err
	}
	d.episodeMu.Lock()
	defer d.episodeMu.Unlock()
	if d.episodeCache == nil {
		d.episodeCache = make([]map[string][]float64, d.Days())
	}
	if cached := d.episodeCache[day]; cached != nil {
		return cached, nil
	}
	out := make(map[string][]float64, len(d.Trace.Servers))
	idx := d.serverIndexLocked(day)
	for _, s := range d.Trace.Servers {
		i := sort.SearchStrings(idx.ids, s.ID)
		if i == len(idx.ids) || idx.ids[i] != s.ID {
			out[s.ID] = nil
			continue
		}
		out[s.ID] = episodeLengths(idx.recs[i], d.alphas[day], d.alphaOrder[day]).Lengths
	}
	d.episodeCache[day] = out
	return out, nil
}

// ConsistencyRatio computes the paper's Section 3.4.3 metric for each
// server: the fraction of the trace the server spent consistent. The
// paper's formula 1 - sum(inconsistency lengths)/total time double-counts
// when stale windows overlap (several updates missed by one refresh), so we
// evaluate the union of stale intervals at poll granularity: the fraction
// of the server's polls that returned fresh content.
func (d *Dataset) ConsistencyRatio() map[string]float64 {
	fresh := make(map[string]int, len(d.Trace.Servers))
	total := make(map[string]int, len(d.Trace.Servers))
	for day := 0; day < d.Days(); day++ {
		for _, r := range d.serverRecs[day] {
			l, ok := inconsistencyOf(r, d.alphas[day], d.alphaOrder[day])
			if !ok {
				continue
			}
			total[r.Server]++
			if l == 0 {
				fresh[r.Server]++
			}
		}
	}
	out := make(map[string]float64, len(d.Trace.Servers))
	for _, s := range d.Trace.Servers {
		if total[s.ID] == 0 {
			out[s.ID] = 1
			continue
		}
		out[s.ID] = float64(fresh[s.ID]) / float64(total[s.ID])
	}
	return out
}

func (d *Dataset) checkDay(day int) error {
	if day < 0 || day >= d.Days() {
		return fmt.Errorf("analysis: day %d outside [0,%d)", day, d.Days())
	}
	return nil
}
