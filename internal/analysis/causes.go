package analysis

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"cdnconsistency/internal/stats"
	"cdnconsistency/internal/trace"
)

// DistancePoint pairs a provider-server distance bucket with the average
// consistency ratio of its servers (Figure 8).
type DistancePoint struct {
	DistanceKm float64
	AvgRatio   float64
	Servers    int
}

// DistanceCorrelation buckets servers by distance to the provider (bucketKm
// wide, default 500 km) and computes each bucket's mean consistency ratio
// plus the Pearson correlation between distance and ratio across servers.
// The paper finds essentially no correlation (r = 0.11).
func (d *Dataset) DistanceCorrelation(bucketKm float64) ([]DistancePoint, float64, error) {
	if bucketKm <= 0 {
		bucketKm = 500
	}
	ratios := d.ConsistencyRatio()
	var xs, ys []float64
	type agg struct {
		sum float64
		n   int
	}
	buckets := make(map[int]*agg)
	for _, s := range d.Trace.Servers {
		r := ratios[d.ix.ServerID(s.ID)]
		xs = append(xs, s.DistanceKm)
		ys = append(ys, r)
		b := int(s.DistanceKm / bucketKm)
		a := buckets[b]
		if a == nil {
			a = &agg{}
			buckets[b] = a
		}
		a.sum += r
		a.n++
	}
	if len(xs) < 2 {
		return nil, 0, fmt.Errorf("analysis: too few servers (%d) for correlation", len(xs))
	}
	corr, err := stats.Pearson(xs, ys)
	if err != nil {
		// Zero variance (all ratios identical) means no correlation.
		corr = 0
	}
	keys := make([]int, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]DistancePoint, 0, len(keys))
	for _, k := range keys {
		a := buckets[k]
		out = append(out, DistancePoint{
			DistanceKm: (float64(k) + 0.5) * bucketKm,
			AvgRatio:   a.sum / float64(a.n),
			Servers:    a.n,
		})
	}
	return out, corr, nil
}

// ISPCluster summarizes one ISP's intra- and inter-ISP inconsistency
// (Figures 9(b), 9(c), 9(d)).
type ISPCluster struct {
	ISP     int
	Servers int
	Intra   stats.Summary // percentiles of intra-ISP lengths (s)
	Inter   stats.Summary // percentiles of inter-ISP lengths (s)
	// AvgIntra and AvgInter are the Figure 9(d) bars.
	AvgIntra, AvgInter float64
}

// ISPAnalysis computes, for each ISP cluster, the inconsistency lengths with
// alpha scoped to the cluster itself (intra) and to all other clusters
// (inter). The paper observes inter >= intra throughout, the increment
// quantifying the inter-ISP traffic penalty (Section 3.4.3).
func (d *Dataset) ISPAnalysis(day int) ([]ISPCluster, error) {
	if err := d.checkDay(day); err != nil {
		return nil, err
	}
	var isps []int
	for _, s := range d.ix.Servers {
		isps = append(isps, s.ISP)
	}
	sort.Ints(isps)
	isps = slices.Compact(isps)

	var out []ISPCluster
	for _, isp := range isps {
		var members, others []int
		for id, s := range d.ix.Servers {
			if s.ISP == isp {
				members = append(members, id)
			} else {
				others = append(others, id)
			}
		}
		intra, err := d.ScopedInconsistencies(day, members, members)
		if err != nil {
			return nil, err
		}
		inter, err := d.ScopedInconsistencies(day, members, others)
		if err != nil {
			return nil, err
		}
		c := ISPCluster{ISP: isp, Servers: len(members)}
		if len(intra.Lengths) > 0 {
			c.Intra, _ = stats.Summarize(intra.Lengths)
			c.AvgIntra = intra.Mean()
		}
		if len(inter.Lengths) > 0 {
			c.Inter, _ = stats.Summarize(inter.Lengths)
			c.AvgInter = inter.Mean()
		}
		out = append(out, c)
	}
	return out, nil
}

// ProviderResponseTimes returns all provider-poll RTTs in seconds for one
// day (Figure 10(a)).
func (d *Dataset) ProviderResponseTimes(day int) ([]float64, error) {
	if err := d.checkDay(day); err != nil {
		return nil, err
	}
	var out []float64
	for _, p := range d.ix.Days[day].ByTime[trace.ProviderKind] {
		if r := &d.ix.Records[p]; !r.Absent {
			out = append(out, r.RTT.Seconds())
		}
	}
	return out, nil
}

// Absence is one reconstructed server absence: a gap between successive
// responses longer than the poll interval (Section 3.4.5).
type Absence struct {
	Server  string
	Day     int
	Start   time.Duration // last response before the gap
	End     time.Duration // first response after the gap
	Length  time.Duration // End - Start - pollInterval
	ReturnI float64       // inconsistency length of the first post-return poll (s); -1 if fresh/unknown
}

// Absences reconstructs absences from response gaps, mirroring the paper's
// methodology (absence = t_{i+1} - t_i - pollInterval).
func (d *Dataset) Absences(day int) ([]Absence, error) {
	if err := d.checkDay(day); err != nil {
		return nil, err
	}
	interval := d.Trace.Meta.PollInterval
	var out []Absence
	for s, srv := range d.ix.Servers {
		var last *trace.PollRecord
		for _, p := range d.crawl(day, s) {
			r := &d.ix.Records[p]
			if r.Absent {
				continue // methodology: absences derived from response gaps
			}
			// A gap beyond the normal cadence (with jitter slack) is an absence.
			if last != nil && r.At-last.At > interval+interval/2 {
				a := Absence{Server: srv.ID, Day: day, Start: last.At, End: r.At, Length: r.At - last.At - interval, ReturnI: -1}
				if l, ok := d.inconsistencyOf(day, p); ok {
					a.ReturnI = l
				}
				out = append(out, a)
			}
			last = r
		}
	}
	return out, nil
}

// AbsenceBin aggregates post-return inconsistency by absence length
// (Figure 10(c): inconsistency grows from ~38 s to ~44 s as absences grow
// from 0 to 400 s).
type AbsenceBin struct {
	// MaxLength is the bin's upper bound; records fall into the first bin
	// whose bound is >= the absence length.
	MaxLength time.Duration
	AvgI      float64
	N         int
}

// AbsenceEffect bins absences every binWidth (default 50 s) up to maxLen
// (default 400 s) and averages the post-return inconsistency per bin. The
// zero-length bin (no absence) uses the day's overall average inconsistency.
func (d *Dataset) AbsenceEffect(day int, binWidth, maxLen time.Duration) ([]AbsenceBin, error) {
	if binWidth <= 0 {
		binWidth = 50 * time.Second
	}
	if maxLen <= 0 {
		maxLen = 400 * time.Second
	}
	abs, err := d.Absences(day)
	if err != nil {
		return nil, err
	}
	ri, err := d.RequestInconsistencies(day)
	if err != nil {
		return nil, err
	}
	nBins := int(maxLen/binWidth) + 1
	sums := make([]float64, nBins)
	counts := make([]int, nBins)
	for _, a := range abs {
		// Only returns that actually served stale content participate;
		// the zero-length baseline below likewise averages positive
		// lengths (the paper's inconsistency lengths are positive by
		// construction).
		if a.ReturnI <= 0 || a.Length > maxLen {
			continue
		}
		b := int(a.Length / binWidth)
		if a.Length > 0 && a.Length%binWidth == 0 {
			b-- // closed upper bound per paper's (0,50], (50,100] bins
		}
		if b >= nBins-1 {
			b = nBins - 2
		}
		sums[b+1] += a.ReturnI
		counts[b+1]++
	}
	out := make([]AbsenceBin, 0, nBins)
	out = append(out, AbsenceBin{MaxLength: 0, AvgI: ri.Mean(), N: ri.Total})
	for b := 1; b < nBins; b++ {
		bin := AbsenceBin{MaxLength: time.Duration(b) * binWidth, N: counts[b]}
		if counts[b] > 0 {
			bin.AvgI = sums[b] / float64(counts[b])
		}
		out = append(out, bin)
	}
	return out, nil
}

// AbsenceProximity reproduces Figure 10(d): average request inconsistency
// within window seconds before an absence starts and after it ends, grouped
// by absence length group (e.g. [0,100s], (100,200s], ...).
type AbsenceProximity struct {
	GroupMax  time.Duration // upper bound of the absence-length group
	AvgBefore float64
	AvgAfter  float64
	N         int
}

// AbsenceProximityEffect measures inconsistency near absences.
func (d *Dataset) AbsenceProximityEffect(day int, window time.Duration, groups []time.Duration) ([]AbsenceProximity, error) {
	if window <= 0 {
		window = 60 * time.Second
	}
	if len(groups) == 0 {
		groups = []time.Duration{100 * time.Second, 200 * time.Second, 300 * time.Second, 400 * time.Second}
	}
	abs, err := d.Absences(day)
	if err != nil {
		return nil, err
	}
	type agg struct {
		before, after float64
		nb, na, n     int
	}
	aggs := make([]agg, len(groups))
	for _, a := range abs {
		gi := -1
		for i, g := range groups {
			if a.Length <= g {
				gi = i
				break
			}
		}
		if gi < 0 {
			continue
		}
		aggs[gi].n++
		for _, p := range d.crawl(day, d.ix.ServerID(a.Server)) {
			l, ok := d.inconsistencyOf(day, p)
			if !ok {
				continue
			}
			r := &d.ix.Records[p]
			if r.At >= a.Start-window && r.At <= a.Start {
				aggs[gi].before += l
				aggs[gi].nb++
			}
			if r.At >= a.End && r.At <= a.End+window {
				aggs[gi].after += l
				aggs[gi].na++
			}
		}
	}
	out := make([]AbsenceProximity, 0, len(groups))
	for i, g := range groups {
		p := AbsenceProximity{GroupMax: g, N: aggs[i].n}
		if aggs[i].nb > 0 {
			p.AvgBefore = aggs[i].before / float64(aggs[i].nb)
		}
		if aggs[i].na > 0 {
			p.AvgAfter = aggs[i].after / float64(aggs[i].na)
		}
		out = append(out, p)
	}
	return out, nil
}
