package plan

import (
	"fmt"
	"sort"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/netmodel"
)

// The metric registry: every name an Assertion may reference, with its
// extractor. Metrics are pure functions of a deterministic run's Result, so
// asserting exact equality (==) on them is meaningful.
//
// Percentiles use the weighted nearest-rank definition (the smallest value
// whose cumulative user weight reaches the rank), not interpolation: under
// the cohort user model one entry stands for a whole stratum of identical
// users, and nearest-rank makes weighted and one-member cohorts report
// bit-identical percentiles — which the cohort_explicit equivalence check
// relies on.
var metricDefs = []struct {
	name string
	fn   func(*cdn.Result) float64
}{
	// Inconsistency (seconds).
	{"mean_server_inconsistency", func(r *cdn.Result) float64 { return r.MeanServerInconsistency() }},
	{"mean_user_inconsistency", func(r *cdn.Result) float64 { return r.MeanUserInconsistency() }},

	// User-observed consistency.
	{"stale_serve_frac", func(r *cdn.Result) float64 { return r.StaleServeFrac() }},
	{"inconsistent_observation_frac", func(r *cdn.Result) float64 { return r.InconsistentObservationFrac() }},
	{"failed_visit_frac", func(r *cdn.Result) float64 { return r.FailedVisitFrac() }},
	{"user_observations", func(r *cdn.Result) float64 { return float64(r.UserObservations) }},
	{"users", func(r *cdn.Result) float64 { return float64(totalUsers(r)) }},

	// Fault and failover outcomes.
	{"crashes", func(r *cdn.Result) float64 { return float64(r.Crashes) }},
	{"recoveries", func(r *cdn.Result) float64 { return float64(r.Recoveries) }},
	{"mean_recovery_s", func(r *cdn.Result) float64 { return r.MeanRecoverySeconds() }},
	{"failed_servers", func(r *cdn.Result) float64 { return float64(r.FailedServers) }},
	{"live_servers", func(r *cdn.Result) float64 { return float64(r.LiveServers) }},
	{"live_final_frac", liveFinalFrac},
	{"failed_visits", func(r *cdn.Result) float64 { return float64(r.FailedVisits) }},
	{"user_failovers", func(r *cdn.Result) float64 { return float64(r.UserFailovers) }},
	{"server_reparents", func(r *cdn.Result) float64 { return float64(r.ServerReparents) }},
	{"ttl_fallbacks", func(r *cdn.Result) float64 { return float64(r.TTLFallbacks) }},

	// Federation outcomes (multi-CDN origin layer; zero without a
	// federation spec).
	{"degraded_seconds", func(r *cdn.Result) float64 { return r.DegradedSeconds }},
	{"provider_switches", func(r *cdn.Result) float64 { return float64(r.ProviderSwitches) }},
	{"peer_handoffs", func(r *cdn.Result) float64 { return float64(r.PeerHandoffs) }},
	{"stranded_users", func(r *cdn.Result) float64 { return float64(r.StrandedUsers) }},

	// Traffic cost (the paper's cost axis) and message counts.
	{"update_msgs_to_servers", func(r *cdn.Result) float64 { return float64(r.UpdateMsgsToServers) }},
	{"update_msgs_from_provider", func(r *cdn.Result) float64 { return float64(r.UpdateMsgsFromProvider) }},
	{"light_msgs", func(r *cdn.Result) float64 { return float64(r.LightMsgs) }},
	{"total_msgs", func(r *cdn.Result) float64 { return float64(classTotal(r).Messages) }},
	{"total_kb", func(r *cdn.Result) float64 { return classTotal(r).KB }},
	{"total_km_kb", func(r *cdn.Result) float64 { return classTotal(r).KmKB }},
	{"update_km_kb", func(r *cdn.Result) float64 { return r.Accounting.ByClass[netmodel.ClassUpdate].KmKB }},
	{"light_km_kb", func(r *cdn.Result) float64 { return r.Accounting.ByClass[netmodel.ClassLight].KmKB }},
	{"content_km_kb", func(r *cdn.Result) float64 { return r.Accounting.ByClass[netmodel.ClassContent].KmKB }},
	{"provider_msgs", func(r *cdn.Result) float64 { return float64(r.Accounting.BySender[cdn.ProviderSender(0)].Messages) }},
	{"provider_kb", func(r *cdn.Result) float64 { return r.Accounting.BySender[cdn.ProviderSender(0)].KB }},
	{"provider_km_kb", func(r *cdn.Result) float64 { return r.Accounting.BySender[cdn.ProviderSender(0)].KmKB }},

	// Structure and bookkeeping.
	{"tree_depth", func(r *cdn.Result) float64 { return float64(r.TreeDepth) }},
	{"supernodes", func(r *cdn.Result) float64 { return float64(r.Supernodes) }},
	{"events", func(r *cdn.Result) float64 { return float64(r.Events) }},
	{"audit_checks", func(r *cdn.Result) float64 { return float64(r.AuditChecks) }},
	// audit_violations is 0 for any run that completed; a run aborted by
	// the auditor reports 1 (see RunCell).
	{"audit_violations", func(*cdn.Result) float64 { return 0 }},
}

// percentileMetrics are the p50, p95 and p99 of two per-entry series, named
// p<rank>_<series>; Metrics selects all three ranks of a series in one call.
var percentileMetrics = []struct {
	series string
	of     func(*cdn.Result) ([]float64, []int)
}{
	{"server_inconsistency", func(r *cdn.Result) ([]float64, []int) { return r.ServerAvgInconsistency, nil }},
	{"user_inconsistency", func(r *cdn.Result) ([]float64, []int) { return r.UserAvgInconsistency, r.UserWeights }},
}

// percentileRanks are the ranks of every percentile metric, ascending.
var percentileRanks = []float64{50, 95, 99}

// percentileNames[m][k] names the metric of percentileMetrics[m] at
// percentileRanks[k], p<rank>_<series>.
var percentileNames = func() [][]string {
	names := make([][]string, len(percentileMetrics))
	for m, pm := range percentileMetrics {
		for _, rank := range percentileRanks {
			names[m] = append(names[m], fmt.Sprintf("p%g_%s", rank, pm.series))
		}
	}
	return names
}()

// MetricAuditViolations is the metric set to 1 when the runtime auditor
// aborts a cell's run with a violated invariant.
const MetricAuditViolations = "audit_violations"

var metricSet = func() map[string]bool {
	m := make(map[string]bool, len(metricDefs))
	for _, d := range metricDefs {
		m[d.name] = true
	}
	for _, names := range percentileNames {
		for _, name := range names {
			m[name] = true
		}
	}
	return m
}()

// MetricNames lists every assertable metric, sorted.
func MetricNames() []string {
	out := make([]string, 0, len(metricSet))
	for name := range metricSet {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func knownMetric(name string) bool { return metricSet[name] }

// Metrics extracts every assertable metric from a completed run.
func Metrics(r *cdn.Result) map[string]float64 {
	out := make(map[string]float64, len(metricSet))
	for _, d := range metricDefs {
		out[d.name] = d.fn(r)
	}
	for m, pm := range percentileMetrics {
		xs, weights := pm.of(r)
		for k, v := range weightedPercentiles(xs, weights, percentileRanks) {
			out[percentileNames[m][k]] = v
		}
	}
	return out
}

func classTotal(r *cdn.Result) netmodel.ClassTotals {
	var t netmodel.ClassTotals
	for _, ct := range r.Accounting.ByClass {
		t.Messages += ct.Messages
		t.KB += ct.KB
		t.Km += ct.Km
		t.KmKB += ct.KmKB
	}
	return t
}

func totalUsers(r *cdn.Result) int {
	if r.UserWeights == nil {
		return len(r.UserAvgInconsistency)
	}
	n := 0
	for _, w := range r.UserWeights {
		n += w
	}
	return n
}

func liveFinalFrac(r *cdn.Result) float64 {
	if r.LiveServers == 0 {
		return 0
	}
	return float64(r.LiveServersAtFinalVersion) / float64(r.LiveServers)
}

// weightedPercentiles returns the weighted nearest-rank percentile of xs at
// each of ps: the smallest value whose cumulative weight reaches
// ceil(p/100 x total weight), the rank clamped to [1, total]. weights == nil
// means unit weights, and an entry past the end of weights weighs one;
// weights are member counts, never negative, and xs holds no NaN. Empty
// input, or no weight, gives zeros. ps may come in any order; ascending ps
// (as Metrics passes them) cost one expected-linear selection over the whole
// series and, for each later rank, one over the part at or above the
// previous answer (selectRanks).
func weightedPercentiles(xs []float64, weights []int, ps []float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	pairs := make([]weightedValue, len(xs))
	var total int64
	for i, x := range xs {
		w := 1
		if weights != nil && i < len(weights) {
			w = weights[i]
		}
		pairs[i] = weightedValue{v: x, w: int64(w)}
		total += int64(w)
	}
	if total <= 0 {
		return out
	}
	selectRanks(pairs, total, ps, out)
	return out
}

// weightedValue is one series entry and the weight behind it.
type weightedValue struct {
	v float64
	w int64
}

// nearestRank is the weighted nearest rank of percentile p over total
// weight: ceil(p/100 x total), clamped to [1, total].
func nearestRank(total int64, p float64) int64 {
	rank := int64(float64(total) * p / 100)
	if float64(rank) < float64(total)*p/100 {
		rank++
	}
	return min(max(rank, 1), total)
}

// selectRanks writes into out[k] the value of pairs (of total weight total)
// at the nearest rank of ps[k], reordering pairs in place. It keeps a window
// pairs[lo:]: every entry before it holds a value below the last answer, and
// they weigh below together. A rank above below has its answer in the
// window, at the rank less below, so each later rank of an ascending ps
// searches only the window, which starts at the previous answer's entries; a
// rank at or under below (a descending step) searches the whole series again.
func selectRanks(pairs []weightedValue, total int64, ps []float64, out []float64) {
	lo, below := 0, int64(0)
	for k, p := range ps {
		rank := nearestRank(total, p)
		if rank <= below {
			lo, below = 0, 0
		}
		v, i, w := selectRank(pairs[lo:], rank-below)
		out[k] = v
		lo, below = lo+i, below+w
	}
}

// selectRank returns the value at weighted rank r of a, 1 <= r <= the weight
// of a: the value v whose entries below it weigh under r and whose entries at
// or below it weigh at least r. It is a three-way quickselect with a
// median-of-three pivot, expected linear in len(a). It leaves the entries
// below v in a[:i], of weight w, and those at or above v in a[i:].
func selectRank(a []weightedValue, r int64) (v float64, i int, w int64) {
	lo, hi := 0, len(a)
	for {
		if lo == hi {
			panic("plan: weighted rank beyond the series' weight (a negative weight?)")
		}
		pivot := medianOfThree(a[lo].v, a[lo+(hi-lo)/2].v, a[hi-1].v)
		// Partition a[lo:hi] into [lo, lt) below the pivot, [lt, gt) equal
		// to it and [gt, hi) above it.
		lt, j, gt := lo, lo, hi
		var wLess, wEqual int64
		for j < gt {
			switch x := a[j]; {
			case x.v < pivot:
				a[lt], a[j] = x, a[lt]
				wLess += x.w
				lt++
				j++
			case pivot < x.v:
				gt--
				a[gt], a[j] = x, a[gt]
			default:
				wEqual += x.w
				j++
			}
		}
		switch {
		case r <= wLess:
			hi = lt
		case r <= wLess+wEqual:
			return pivot, lt, w + wLess
		default:
			r -= wLess + wEqual
			w += wLess + wEqual
			lo = gt
		}
	}
}

// medianOfThree returns the median of a, b and c.
func medianOfThree(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = c
		if b < a {
			b = a
		}
	}
	return b
}
