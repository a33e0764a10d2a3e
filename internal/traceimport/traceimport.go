// Package traceimport infers a runnable simulation spec from a crawl
// trace — the inverse of tracegen. Where tracegen turns a configuration
// into polled snapshots, Infer turns polled snapshots back into the
// configuration that plausibly produced them:
//
//   - a server map (deployment sites, ISPs, and the provider's vantage
//     point, fitted from the per-server distances),
//   - a user population (per-server weights from user-view visit shares,
//     normalized by largest-remainder so the counts are exact),
//   - the crawler cadence, the CDN cache TTL (from version-change
//     spacing, the paper's Section 3.4.1 argument), and the update rate,
//   - a fault schedule (absence runs become crash-recovery windows).
//
// Every inferred artifact is emitted in the strict JSON schema its home
// package already parses, so a bundle round-trips byte-exactly and the
// simulator replays it with no out-of-band knowledge. The estimators are
// pure functions of the record set: the same trace always yields the
// same bundle, which the import smoke test relies on.
package traceimport

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/workload"
)

// Infer derives a simulation spec bundle from a crawl trace. It errors —
// never panics — on traces too degenerate to support inference: no
// servers, no observed content versions, or fewer than two version
// changes (nothing to estimate a TTL from).
func Infer(tr *trace.Trace) (*Bundle, error) {
	if tr == nil {
		return nil, fmt.Errorf("traceimport: nil trace")
	}
	// The index checks the trace as Validate does, and groups the records
	// in canonical (day, time) order without moving any of the caller's.
	ix, err := trace.NewIndex(tr)
	if err != nil {
		return nil, fmt.Errorf("traceimport: %w", err)
	}
	if len(tr.Servers) == 0 {
		return nil, fmt.Errorf("traceimport: trace has no servers")
	}

	dayLen := tr.Meta.DayLength
	if dayLen <= 0 {
		for _, r := range tr.Records {
			dayLen = max(dayLen, r.At)
		}
	}
	if dayLen <= 0 {
		return nil, fmt.Errorf("traceimport: cannot infer day length (no day_length and no records)")
	}

	sm := buildServerMap(tr.Servers)
	if err := sm.Validate(); err != nil {
		return nil, fmt.Errorf("traceimport: inferred server map invalid: %w", err)
	}
	// Site-major server order is the index space the population and fault
	// schedule use, matching ServerMap.Topology's materialization order;
	// slot maps each dense server id into it.
	slot := make([]int, len(ix.Servers))
	n := 0
	for _, site := range sm.Sites {
		for _, id := range site.Servers {
			slot[ix.ServerID(id)] = n
			n++
		}
	}

	interval := inferPollInterval(ix, tr.Meta.PollInterval)
	ttl, err := inferServerTTL(ix)
	if err != nil {
		return nil, err
	}
	updatesPerDay, err := inferUpdatesPerDay(tr)
	if err != nil {
		return nil, err
	}
	users, redirect := inferUserBehaviour(ix)
	pop, err := inferPopulation(ix, slot, users, interval)
	if err != nil {
		return nil, err
	}
	crashes, totalRuns := inferAbsences(ix, slot, interval, dayLen)

	b := &Bundle{
		Summary: Summary{
			Servers:       sm.NumServers(),
			Sites:         len(sm.Sites),
			Users:         users,
			Days:          tr.Meta.Days,
			DayLength:     fault.Duration(dayLen),
			PollInterval:  fault.Duration(interval),
			ServerTTL:     fault.Duration(ttl),
			UpdatesPerDay: updatesPerDay,
			UpdateMeanGap: fault.Duration(time.Duration(float64(dayLen) / updatesPerDay)),
			RedirectFrac:  redirect,
			Absences:      totalRuns,
		},
		Population: pop,
		ServerMap:  sm,
	}
	if len(crashes) > 0 {
		b.Faults = &fault.Spec{Crashes: crashes}
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// buildServerMap groups servers sharing coordinates and an ISP into sites
// (first-seen order) and fits the provider's vantage point to the observed
// per-server distances.
func buildServerMap(servers []trace.ServerInfo) *topology.ServerMap {
	type siteKey struct {
		lat, lon float64
		isp      int
	}
	sm := &topology.ServerMap{Provider: fitProvider(servers)}
	at := make(map[siteKey]int)
	for _, s := range servers {
		k := siteKey{lat: s.Lat, lon: s.Lon, isp: s.ISP}
		i, ok := at[k]
		if !ok {
			i = len(sm.Sites)
			at[k] = i
			sm.Sites = append(sm.Sites, topology.Site{Lat: s.Lat, Lon: s.Lon, ISP: max(s.ISP, 0)})
		}
		sm.Sites[i].Servers = append(sm.Sites[i].Servers, s.ID)
	}
	return sm
}

// fitProvider recovers the provider's vantage point from the per-server
// distances by deterministic pattern search: starting at the server
// centroid, it walks the point that minimizes the squared error between
// fitted and observed distances, halving the step from 8 degrees down to
// ~0.001. With no recorded distances it falls back to the centroid.
func fitProvider(servers []trace.ServerInfo) topology.SitePoint {
	var lat, lon float64
	anyDist := false
	for _, s := range servers {
		lat += s.Lat
		lon += s.Lon
		if s.DistanceKm > 0 {
			anyDist = true
		}
	}
	if n := float64(len(servers)); n > 0 {
		lat /= n
		lon /= n
	}
	cur := clampPoint(lat, lon)
	if !anyDist {
		return topology.SitePoint{Lat: round4(cur.Lat), Lon: round4(cur.Lon)}
	}
	sse := func(p geo.Point) float64 {
		var sum float64
		for _, s := range servers {
			d := geo.DistanceKm(p, geo.Point{Lat: s.Lat, Lon: s.Lon}) - s.DistanceKm
			sum += d * d
		}
		return sum
	}
	best := sse(cur)
	for step := 8.0; step >= 0.001; step /= 2 {
		for improved := true; improved; {
			improved = false
			for _, cand := range []geo.Point{
				clampPoint(cur.Lat+step, cur.Lon),
				clampPoint(cur.Lat-step, cur.Lon),
				clampPoint(cur.Lat, cur.Lon+step),
				clampPoint(cur.Lat, cur.Lon-step),
			} {
				if v := sse(cand); v < best {
					best, cur, improved = v, cand, true
				}
			}
		}
	}
	return topology.SitePoint{Lat: round4(cur.Lat), Lon: round4(cur.Lon)}
}

// inferPollInterval returns the modal gap between consecutive polls of one
// server by one vantage point within a day (ties break toward the smaller
// gap), falling back to the trace's declared interval when no two polls
// share a group.
func inferPollInterval(ix *trace.Index, declared time.Duration) time.Duration {
	// last[p] is vantage point p's previous poll of the current server;
	// group[p] names that server as day*servers+server+1.
	last := make([]time.Duration, len(ix.Pollers))
	group := make([]int, len(ix.Pollers))
	tally := make(map[time.Duration]int)
	for day := range ix.Days {
		for s := range ix.Servers {
			g := day*len(ix.Servers) + s + 1
			for _, i := range ix.Days[day].Crawl[s] {
				at, p := ix.Records[i].At, ix.PollerOf[i]
				if group[p] == g && at > last[p] {
					tally[at-last[p]]++
				}
				last[p], group[p] = at, g
			}
		}
	}
	best, bestN := time.Duration(0), 0
	for gap, n := range tally {
		if n > bestN || (n == bestN && (best == 0 || gap < best)) {
			best, bestN = gap, n
		}
	}
	if best <= 0 {
		return declared
	}
	return best
}

// inferServerTTL estimates the CDN cache TTL as the (lower) median spacing
// between observed content-version changes per server-day — the paper's
// Section 3.4.1 reverse-engineering of the refresh interval. It errors
// when the trace shows fewer than two version changes anywhere.
func inferServerTTL(ix *trace.Index) (time.Duration, error) {
	var gaps []time.Duration
	for day := range ix.Days {
		for s := range ix.Servers {
			snap, seen := 0, false
			var lastChange time.Duration
			hasChange := false
			for _, i := range ix.Days[day].Crawl[s] {
				r := &ix.Records[i]
				if r.Absent {
					continue
				}
				if !seen {
					snap, seen = r.Snapshot, true
					continue
				}
				if r.Snapshot > 0 && r.Snapshot != snap {
					if hasChange {
						gaps = append(gaps, r.At-lastChange)
					}
					lastChange, hasChange = r.At, true
				}
				snap = r.Snapshot
			}
		}
	}
	if len(gaps) == 0 {
		return 0, fmt.Errorf("traceimport: cannot infer a server TTL: fewer than two content-version changes observed")
	}
	slices.Sort(gaps)
	return gaps[(len(gaps)-1)/2], nil
}

// inferUpdatesPerDay averages each day's highest observed content version —
// the provider vantage sees nearly every update, so the daily maximum is a
// tight lower bound on the day's update count.
func inferUpdatesPerDay(tr *trace.Trace) (float64, error) {
	maxSnap := make([]int, tr.Meta.Days)
	for _, r := range tr.Records {
		if r.Snapshot > maxSnap[r.Day] {
			maxSnap[r.Day] = r.Snapshot
		}
	}
	sum := 0
	for _, m := range maxSnap {
		sum += m
	}
	avg := float64(sum) / float64(tr.Meta.Days)
	if avg <= 0 {
		return 0, fmt.Errorf("traceimport: cannot infer a workload: no content versions observed")
	}
	return math.Round(avg*100) / 100, nil
}

// inferUserBehaviour counts the distinct user vantage points and estimates
// the per-visit redirect probability from server switches between
// consecutive visits, corrected for redirects that land on the same server
// (a uniform redirect over N servers switches with probability 1 - 1/N).
func inferUserBehaviour(ix *trace.Index) (int, float64) {
	users, switches, transitions := 0, 0, 0
	for u := range ix.Pollers {
		visited := false
		for day := range ix.Days {
			visits := ix.Days[day].User[u]
			visited = visited || len(visits) > 0
			for i := 1; i < len(visits); i++ {
				transitions++
				if ix.ServerOf[visits[i]] != ix.ServerOf[visits[i-1]] {
					switches++
				}
			}
		}
		if visited {
			users++
		}
	}
	if transitions == 0 || len(ix.Servers) < 2 {
		return users, 0
	}
	raw := float64(switches) / float64(transitions)
	p := raw / (1 - 1/float64(len(ix.Servers)))
	if p > 1 {
		p = 1
	}
	return users, math.Round(p*10000) / 10000
}

// inferPopulation turns user-view visit shares into an exact per-server
// population: the visit counts are the weights, largest-remainder rounding
// makes the cohort counts sum to the user total exactly, and each server's
// cohort starts at the earliest observed visit phase within the poll
// interval.
func inferPopulation(ix *trace.Index, slot []int, users int, interval time.Duration) (*workload.Population, error) {
	n := len(slot)
	pop := &workload.Population{Servers: make([][]workload.CohortSpec, n)}
	if users == 0 {
		return pop, nil
	}
	visits := make([]float64, n)
	offsets := make([]time.Duration, n)
	hasOffset := make([]bool, n)
	for _, day := range ix.Days {
		for _, p := range day.ByTime[trace.UserKind] {
			i := slot[ix.ServerOf[p]]
			visits[i]++
			phase := ix.Records[p].At
			if interval > 0 {
				phase %= interval
			}
			if !hasOffset[i] || phase < offsets[i] {
				offsets[i], hasOffset[i] = phase, true
			}
		}
	}
	counts, err := workload.ExactCounts(visits, users)
	if err != nil {
		return nil, fmt.Errorf("traceimport: distribute users: %w", err)
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		pop.Servers[i] = []workload.CohortSpec{{
			Count:    c,
			OffsetNS: int64(offsets[i]),
			PeriodNS: int64(interval),
		}}
	}
	return pop, nil
}

// inferAbsences scans each server-day's crawler polls for maximal runs of
// absent records. Day-0 runs become crash-recovery fault windows (at_frac
// placement so they survive any horizon); the total run count across all
// days goes into the summary.
func inferAbsences(ix *trace.Index, slot []int, interval time.Duration, dayLen time.Duration) ([]fault.Crash, int) {
	var crashes []fault.Crash
	total := 0
	for day := range ix.Days {
		for s := range ix.Servers {
			var start, last time.Duration
			open := false
			closeRun := func() {
				if !open {
					return
				}
				open = false
				total++
				if day == 0 {
					crashes = append(crashes, fault.Crash{
						Server:       slot[s],
						AtFrac:       round6(float64(start) / float64(dayLen)),
						RecoverAfter: fault.Duration(last + interval - start),
					})
				}
			}
			for _, i := range ix.Days[day].Crawl[s] {
				if r := &ix.Records[i]; !r.Absent {
					closeRun()
				} else {
					if !open {
						start, open = r.At, true
					}
					last = r.At
				}
			}
			closeRun() // a run still open at the end of the day
		}
	}
	slices.SortFunc(crashes, func(a, b fault.Crash) int {
		return cmp.Or(cmp.Compare(a.AtFrac, b.AtFrac), cmp.Compare(a.Server, b.Server), cmp.Compare(a.RecoverAfter, b.RecoverAfter))
	})
	return crashes, total
}

func clampPoint(lat, lon float64) geo.Point {
	return geo.Point{Lat: clamp(lat, -90, 90), Lon: clamp(lon, -180, 180)}
}

func clamp(v, lo, hi float64) float64 { return min(hi, max(lo, v)) }

func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }
