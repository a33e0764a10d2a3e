package analysis

import (
	"fmt"
	"sort"
	"time"

	"cdnconsistency/internal/stats"
)

// The multicast-tree existence tests (Section 3.5). If the CDN distributed
// updates down a static proximity-aware tree, then (a) the relative ordering
// of clusters by average inconsistency would be stable across days, (b) the
// relative ordering of servers inside a cluster would be stable, and (c) in
// any tree most servers sit at lower layers, so most servers' maximum
// inconsistency would exceed the TTL. The paper finds all three violated and
// concludes the CDN polls the provider directly over unicast.

// ClusterDaily holds one cluster's per-day average inconsistency.
type ClusterDaily struct {
	Key   string
	ByDay []float64 // average inconsistency length (s) per day
	Min   float64
	Max   float64
}

// ClusterDailyInconsistency computes, for each cluster of servers, the
// average request inconsistency per day (Figures 11(a) and 11(b)). clusters
// maps cluster key to member server ids.
func (d *Dataset) ClusterDailyInconsistency(clusters map[string][]string) ([]ClusterDaily, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("analysis: no clusters")
	}
	keys := make([]string, 0, len(clusters))
	for k := range clusters {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	out := make([]ClusterDaily, 0, len(keys))
	for _, k := range keys {
		members := make(map[string]bool, len(clusters[k]))
		for _, id := range clusters[k] {
			members[id] = true
		}
		cd := ClusterDaily{Key: k}
		for day := 0; day < d.Days(); day++ {
			var sum float64
			var n int
			for _, r := range d.serverRecs[day] {
				if !members[r.Server] {
					continue
				}
				l, ok := inconsistencyOf(r, d.alphas[day], d.alphaOrder[day])
				if !ok {
					continue
				}
				sum += l
				n++
			}
			avg := 0.0
			if n > 0 {
				avg = sum / float64(n)
			}
			cd.ByDay = append(cd.ByDay, avg)
			if day == 0 || avg < cd.Min {
				cd.Min = avg
			}
			if day == 0 || avg > cd.Max {
				cd.Max = avg
			}
		}
		out = append(out, cd)
	}
	return out, nil
}

// RankStability quantifies how stable a set of entities' inconsistency
// ranking is across days: the mean over entities of (max rank - min rank)
// normalized by the entity count. A static tree would pin each entity to a
// layer, keeping the spread near 0; the paper's Figures 11(c,d) show large
// spreads.
type RankStability struct {
	// Ranks[day][i] is entity i's rank (1 = most consistent) on that day.
	Ranks [][]int
	// Entities lists the entity ids in Ranks' column order.
	Entities []string
	// MeanSpread is the average normalized rank spread in [0,1].
	MeanSpread float64
	// MeanKendallTau is the average Kendall tau between consecutive days'
	// rankings: near 1 for a static tree, near 0 for the paper's churn.
	MeanKendallTau float64
}

// ServerRankStability ranks the given servers by average inconsistency each
// day and measures rank churn. Servers missing data on a day keep rank 0
// and are excluded from the spread.
func (d *Dataset) ServerRankStability(serverIDs []string) (RankStability, error) {
	if len(serverIDs) < 2 {
		return RankStability{}, fmt.Errorf("analysis: need at least 2 servers, got %d", len(serverIDs))
	}
	ids := append([]string(nil), serverIDs...)
	sort.Strings(ids)
	idx := make(map[string]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}

	rs := RankStability{Entities: ids}
	for day := 0; day < d.Days(); day++ {
		sums := make([]float64, len(ids))
		counts := make([]int, len(ids))
		for _, r := range d.serverRecs[day] {
			i, ok := idx[r.Server]
			if !ok {
				continue
			}
			l, lok := inconsistencyOf(r, d.alphas[day], d.alphaOrder[day])
			if !lok {
				continue
			}
			sums[i] += l
			counts[i]++
		}
		type sv struct {
			i   int
			avg float64
		}
		var present []sv
		for i := range ids {
			if counts[i] > 0 {
				present = append(present, sv{i: i, avg: sums[i] / float64(counts[i])})
			}
		}
		sort.Slice(present, func(a, b int) bool {
			if present[a].avg != present[b].avg {
				return present[a].avg < present[b].avg
			}
			return present[a].i < present[b].i
		})
		ranks := make([]int, len(ids))
		for rank, s := range present {
			ranks[s.i] = rank + 1
		}
		rs.Ranks = append(rs.Ranks, ranks)
	}

	var spreadSum float64
	var spreadN int
	for i := range ids {
		minR, maxR := 0, 0
		for _, ranks := range rs.Ranks {
			r := ranks[i]
			if r == 0 {
				continue
			}
			if minR == 0 || r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
		}
		if minR == 0 {
			continue
		}
		spreadSum += float64(maxR-minR) / float64(len(ids))
		spreadN++
	}
	if spreadN > 0 {
		rs.MeanSpread = spreadSum / float64(spreadN)
	}

	// Kendall tau between consecutive days over entities ranked on both.
	var tauSum float64
	var tauN int
	for day := 1; day < len(rs.Ranks); day++ {
		var a, b []float64
		for i := range ids {
			ra, rb := rs.Ranks[day-1][i], rs.Ranks[day][i]
			if ra == 0 || rb == 0 {
				continue
			}
			a = append(a, float64(ra))
			b = append(b, float64(rb))
		}
		if tau, err := stats.KendallTau(a, b); err == nil {
			tauSum += tau
			tauN++
		}
	}
	if tauN > 0 {
		rs.MeanKendallTau = tauSum / float64(tauN)
	}
	return rs, nil
}

// MaxInconsistencyResult is the Figure 12 test: the CDF of per-server
// maximum inconsistency (servers with any absence excluded) and the
// fraction below the TTL. A multicast tree would put most servers below the
// second layer, forcing most maxima above the TTL; the paper instead finds
// 76.7-86.9% of servers below it.
type MaxInconsistencyResult struct {
	Maxima       []float64 // per-server daily maximum inconsistency (s)
	FracUnderTTL float64
	// FracUnder2TTL is the dynamic-tree discriminator: under unicast
	// polling a server's maximum catch-up is bounded by one TTL plus
	// fetch lag and poll granularity, so it stays below 2*TTL; under a
	// multicast tree most servers sit at depth >= 2 where the bound is
	// depth*TTL.
	FracUnder2TTL float64
}

// MaxInconsistencyTest computes the Figure 12 measure for one day.
func (d *Dataset) MaxInconsistencyTest(day int, ttl time.Duration) (MaxInconsistencyResult, error) {
	if err := d.checkDay(day); err != nil {
		return MaxInconsistencyResult{}, err
	}
	if ttl <= 0 {
		ttl = d.Trace.Meta.ServerTTL
	}
	if ttl <= 0 {
		return MaxInconsistencyResult{}, fmt.Errorf("analysis: ttl unknown")
	}
	// Exclude servers with any absence that day (Section 3.5.2 removes
	// them to eliminate tree-dynamism effects).
	absent := make(map[string]bool)
	for _, r := range d.Trace.Records {
		if r.Day == day && r.Absent && !r.Provider && !r.UserView {
			absent[r.Server] = true
		}
	}
	per, err := d.PerServerInconsistency(day)
	if err != nil {
		return MaxInconsistencyResult{}, err
	}
	// Only servers that actually responded that day participate.
	responded := make(map[string]bool)
	for _, r := range d.serverRecs[day] {
		if !r.Absent && r.Snapshot > 0 {
			responded[r.Server] = true
		}
	}
	servers := make([]string, 0, len(per))
	for s := range per {
		if !absent[s] && responded[s] {
			servers = append(servers, s)
		}
	}
	sort.Strings(servers)
	var res MaxInconsistencyResult
	var under, under2 int
	for _, s := range servers {
		var m float64
		for _, l := range per[s] {
			if l > m {
				m = l
			}
		}
		res.Maxima = append(res.Maxima, m)
		if m < ttl.Seconds() {
			under++
		}
		if m < 2*ttl.Seconds() {
			under2++
		}
	}
	if len(res.Maxima) > 0 {
		res.FracUnderTTL = float64(under) / float64(len(res.Maxima))
		res.FracUnder2TTL = float64(under2) / float64(len(res.Maxima))
	}
	return res, nil
}

// TreeVerdict summarizes all three existence tests into the paper's
// conclusion.
type TreeVerdict struct {
	ClusterRankSpread float64 // normalized spread of cluster rankings across days
	ServerRankSpread  float64 // normalized spread of server rankings inside a cluster
	FracUnderTTL      float64 // Figure 12 fraction (averaged over days)
	FracUnder2TTL     float64 // dynamic-tree discriminator (averaged over days)
	// StaticTreeLikely and DynamicTreeLikely hold the inferred verdicts:
	// both false reproduces the paper's conclusion (unicast polling).
	StaticTreeLikely  bool
	DynamicTreeLikely bool
}

// LargestCluster returns the members of the cluster with the most members,
// ties going to the smallest key, so the choice does not depend on map
// iteration order. It returns nil when every cluster is empty.
func LargestCluster(clusters map[string][]string) []string {
	var best string
	var largest []string
	for k, members := range clusters {
		if len(members) > len(largest) || (len(members) == len(largest) && k < best) {
			best, largest = k, members
		}
	}
	return largest
}

// TreeExistence runs the complete Section-3.5 battery using the given
// clusters (typically Dataset location or ISP clusters).
func (d *Dataset) TreeExistence(clusters map[string][]string, ttl time.Duration) (TreeVerdict, error) {
	daily, err := d.ClusterDailyInconsistency(clusters)
	if err != nil {
		return TreeVerdict{}, err
	}
	// Cluster-level rank spread across days.
	var verdict TreeVerdict
	if d.Days() > 1 && len(daily) > 1 {
		spreads := clusterRankSpread(daily)
		verdict.ClusterRankSpread = spreads
	}
	// Server-level spread inside the largest cluster.
	if largest := LargestCluster(clusters); len(largest) >= 2 {
		rs, err := d.ServerRankStability(largest)
		if err == nil {
			verdict.ServerRankSpread = rs.MeanSpread
		}
	}
	var fracSum, frac2Sum float64
	var fracN int
	for day := 0; day < d.Days(); day++ {
		res, err := d.MaxInconsistencyTest(day, ttl)
		if err != nil || len(res.Maxima) == 0 {
			continue
		}
		fracSum += res.FracUnderTTL
		frac2Sum += res.FracUnder2TTL
		fracN++
	}
	if fracN > 0 {
		verdict.FracUnderTTL = fracSum / float64(fracN)
		verdict.FracUnder2TTL = frac2Sum / float64(fracN)
	}
	// Heuristics mirroring the paper's reasoning: a static tree implies
	// near-zero rank churn; any multicast tree puts most servers at depth
	// >= 2, where the maximum catch-up exceeds 2*TTL.
	verdict.StaticTreeLikely = verdict.ClusterRankSpread < 0.05 && verdict.ServerRankSpread < 0.05
	verdict.DynamicTreeLikely = verdict.FracUnder2TTL < 0.5
	return verdict, nil
}

func clusterRankSpread(daily []ClusterDaily) float64 {
	if len(daily) == 0 || len(daily[0].ByDay) == 0 {
		return 0
	}
	days := len(daily[0].ByDay)
	n := len(daily)
	minRank := make([]int, n)
	maxRank := make([]int, n)
	for day := 0; day < days; day++ {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			va, vb := daily[order[a]].ByDay[day], daily[order[b]].ByDay[day]
			if va != vb {
				return va < vb
			}
			return order[a] < order[b]
		})
		for rank, i := range order {
			r := rank + 1
			if day == 0 {
				minRank[i], maxRank[i] = r, r
				continue
			}
			if r < minRank[i] {
				minRank[i] = r
			}
			if r > maxRank[i] {
				maxRank[i] = r
			}
		}
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(maxRank[i]-minRank[i]) / float64(n)
	}
	return sum / float64(n)
}

// MaximaCDF is a convenience that wraps a MaxInconsistencyResult's maxima in
// a CDF for figure output.
func (r MaxInconsistencyResult) MaximaCDF() (*stats.CDF, error) {
	return stats.NewCDF(r.Maxima)
}
