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
// NewDataset and reuse it across analyses; construction groups the records
// per day and observer in SortRecords order (trace.Index), leaving the
// trace's own records where they are, and computes per-day
// first-appearance (alpha) tables.
type Dataset struct {
	Trace *trace.Trace
	ix    *trace.Index

	// alphas[day][snapshot] is the first time the snapshot was observed
	// on any content server that day — the paper's alpha_Ci (Section 3.1:
	// with thousands of polled servers, the first observation approximates
	// the provider's update time).
	alphas []map[int]time.Duration
	// alphaOrder[day] lists snapshot ids observed that day in ascending
	// order, for "next snapshot" lookups.
	alphaOrder [][]int

	// episodes[day] memoizes PerServerInconsistency and serverAlphas[day]
	// holds each server's own first-appearance table, built on first use
	// by ScopedInconsistencies. mu guards both: a Dataset is otherwise
	// read-only after NewDataset, and the figure generators read one
	// concurrently.
	mu           sync.Mutex
	episodes     [][][]float64
	serverAlphas [][]map[int]time.Duration
}

// NewDataset indexes a trace; a trace that fails Validate fails with the
// same error, wrapped.
func NewDataset(tr *trace.Trace) (*Dataset, error) {
	ix, err := trace.NewIndex(tr)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	days := tr.Meta.Days
	d := &Dataset{
		Trace:        tr,
		ix:           ix,
		alphas:       make([]map[int]time.Duration, days),
		alphaOrder:   make([][]int, days),
		episodes:     make([][][]float64, days),
		serverAlphas: make([][]map[int]time.Duration, days),
	}
	for day := range d.ix.Days {
		d.alphas[day] = d.computeAlphas(d.ix.Days[day].Crawl...)
		d.alphaOrder[day] = sortedSnapshots(d.alphas[day])
	}
	return d, nil
}

// crawl returns server s's crawler records of day, in time order.
func (d *Dataset) crawl(day, s int) []int32 { return d.ix.Days[day].Crawl[s] }

// Days returns the number of crawl days.
func (d *Dataset) Days() int { return d.Trace.Meta.Days }

// Servers returns the crawled servers by dense id, which is ascending
// server id: the ids that index ConsistencyRatio and
// PerServerInconsistency and that Cluster members and server sets name.
// The slice is shared; do not modify it.
func (d *Dataset) Servers() []trace.ServerInfo { return d.ix.Servers }

// ServerID returns the dense id of the server with the given id, or -1.
func (d *Dataset) ServerID(id string) int { return d.ix.ServerID(id) }

// computeAlphas maps each snapshot to its first appearance time among the
// records of the given groups. Absent records never carry snapshots, so
// they are skipped implicitly by the Snapshot > 0 check.
func (d *Dataset) computeAlphas(groups ...[]int32) map[int]time.Duration {
	alphas := make(map[int]time.Duration)
	for _, pos := range groups {
		for _, p := range pos {
			r := &d.ix.Records[p]
			if r.Snapshot <= 0 {
				continue
			}
			if cur, ok := alphas[r.Snapshot]; !ok || r.At < cur {
				alphas[r.Snapshot] = r.At
			}
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

// inconsistencyOf is the instantaneous staleness of the crawler record at
// position p of day: for a record showing snapshot Ci at time t, it is
// t - alpha(C_next) when a newer snapshot had already appeared, else 0.
// The boolean reports whether the record carried content at all. This
// per-poll view drives the instantaneous measures (Figure 4(b), absence
// proximity); the headline inconsistency lengths use the episode measure
// below.
func (d *Dataset) inconsistencyOf(day int, p int32) (float64, bool) {
	r := &d.ix.Records[p]
	if r.Absent || r.Snapshot <= 0 {
		return 0, false
	}
	next := nextObserved(d.alphaOrder[day], r.Snapshot)
	if next == 0 {
		return 0, true // newest observed snapshot: fresh
	}
	alphaNext := d.alphas[day][next]
	if r.At <= alphaNext {
		return 0, true
	}
	return (r.At - alphaNext).Seconds(), true
}

// episodeLengths computes, for one observer's time-ordered records at pos,
// the catch-up delay for every update in the alpha order. An update the
// observer never catches up to (end of trace) contributes nothing.
// Negative delays (possible under scoped alphas when the observer itself
// defines the global first appearance) count as fresh.
func (d *Dataset) episodeLengths(pos []int32, alphas map[int]time.Duration, order []int) RequestInconsistency {
	var out RequestInconsistency
	ri := 0
	for _, snap := range order {
		alpha := alphas[snap]
		// Advance to the first content-bearing record showing >= snap.
		for ri < len(pos) && (d.ix.Records[pos[ri]].Absent || d.ix.Records[pos[ri]].Snapshot < snap) {
			ri++
		}
		if ri == len(pos) {
			break
		}
		out.Total++
		delay := (d.ix.Records[pos[ri]].At - alpha).Seconds()
		if delay <= 0 {
			out.Fresh++
		} else {
			out.Lengths = append(out.Lengths, delay)
		}
	}
	return out
}

// add merges another measure into ri.
func (ri *RequestInconsistency) add(o RequestInconsistency) {
	ri.Lengths = append(ri.Lengths, o.Lengths...)
	ri.Fresh += o.Fresh
	ri.Total += o.Total
}

// RequestInconsistencies computes the Figure-3 measure for one day over all
// content servers, in server-id order, using the global alpha table.
func (d *Dataset) RequestInconsistencies(day int) (RequestInconsistency, error) {
	if err := d.checkDay(day); err != nil {
		return RequestInconsistency{}, err
	}
	var out RequestInconsistency
	for _, pos := range d.ix.Days[day].Crawl {
		out.add(d.episodeLengths(pos, d.alphas[day], d.alphaOrder[day]))
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
// Each provider poller is one observer, taken in poller-id order.
func (d *Dataset) ProviderInconsistencies(day int) (RequestInconsistency, error) {
	if err := d.checkDay(day); err != nil {
		return RequestInconsistency{}, err
	}
	prov := d.ix.Days[day].Provider
	alphas := d.computeAlphas(prov...)
	order := sortedSnapshots(alphas)
	var out RequestInconsistency
	for _, pos := range prov {
		out.add(d.episodeLengths(pos, alphas, order))
	}
	return out, nil
}

// ScopedInconsistencies computes request inconsistency for records of the
// given servers (dense ids, in the order given), with alpha computed from
// the alphaScope servers. Passing the same set for both yields the paper's
// inner-cluster measure (Figure 5); passing "all other clusters" as the
// scope yields the inter-ISP measure (Figure 9(c)).
func (d *Dataset) ScopedInconsistencies(day int, servers, alphaScope []int) (RequestInconsistency, error) {
	if err := d.checkDay(day); err != nil {
		return RequestInconsistency{}, err
	}
	own := d.ownAlphas(day)
	// The scope's first appearance of a snapshot is the earliest among its
	// servers' own first appearances.
	alphas := make(map[int]time.Duration)
	for _, s := range alphaScope {
		for snap, at := range own[s] {
			if cur, ok := alphas[snap]; !ok || at < cur {
				alphas[snap] = at
			}
		}
	}
	order := sortedSnapshots(alphas)
	var out RequestInconsistency
	for _, s := range servers {
		out.add(d.episodeLengths(d.crawl(day, s), alphas, order))
	}
	return out, nil
}

// ownAlphas returns each server's own first-appearance table for day,
// building them on first use.
func (d *Dataset) ownAlphas(day int) []map[int]time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.serverAlphas[day] == nil {
		own := make([]map[int]time.Duration, len(d.ix.Servers))
		for s := range own {
			own[s] = d.computeAlphas(d.crawl(day, s))
		}
		d.serverAlphas[day] = own
	}
	return d.serverAlphas[day]
}

// PerServerInconsistency aggregates one day's episode inconsistencies per
// server (global alpha scope), indexed by dense server id: each server's
// positive episode lengths in seconds, empty for a server whose episodes
// were all fresh. Results are cached on the Dataset.
func (d *Dataset) PerServerInconsistency(day int) ([][]float64, error) {
	if err := d.checkDay(day); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.episodes[day] == nil {
		per := make([][]float64, len(d.ix.Servers))
		for s := range per {
			per[s] = d.episodeLengths(d.crawl(day, s), d.alphas[day], d.alphaOrder[day]).Lengths
		}
		d.episodes[day] = per
	}
	return d.episodes[day], nil
}

// ConsistencyRatio computes the paper's Section 3.4.3 metric for each
// server, indexed by dense server id: the fraction of the trace the server
// spent consistent. The paper's formula 1 - sum(inconsistency
// lengths)/total time double-counts when stale windows overlap (several
// updates missed by one refresh), so we evaluate the union of stale
// intervals at poll granularity: the fraction of the server's polls that
// returned fresh content.
func (d *Dataset) ConsistencyRatio() []float64 {
	out := make([]float64, len(d.ix.Servers))
	for s := range out {
		fresh, total := 0, 0
		for day := 0; day < d.Days(); day++ {
			for _, p := range d.crawl(day, s) {
				if l, ok := d.inconsistencyOf(day, p); ok {
					total++
					if l == 0 {
						fresh++
					}
				}
			}
		}
		out[s] = 1
		if total > 0 {
			out[s] = float64(fresh) / float64(total)
		}
	}
	return out
}

func (d *Dataset) checkDay(day int) error {
	if day < 0 || day >= d.Days() {
		return fmt.Errorf("analysis: day %d outside [0,%d)", day, d.Days())
	}
	return nil
}
