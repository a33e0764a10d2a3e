package plan

import (
	"fmt"
	"slices"
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
// p<rank>_<series>; Metrics sorts each series once for all three.
var percentileMetrics = []struct {
	series string
	of     func(*cdn.Result) ([]float64, []int)
}{
	{"server_inconsistency", func(r *cdn.Result) ([]float64, []int) { return r.ServerAvgInconsistency, nil }},
	{"user_inconsistency", func(r *cdn.Result) ([]float64, []int) { return r.UserAvgInconsistency, r.UserWeights }},
}

// percentileRanks are the ranks of every percentile metric, ascending.
var percentileRanks = []float64{50, 95, 99}

// percentileName names the metric of series at rank.
func percentileName(rank float64, series string) string {
	return fmt.Sprintf("p%g_%s", rank, series)
}

// MetricAuditViolations is the metric set to 1 when the runtime auditor
// aborts a cell's run with a violated invariant.
const MetricAuditViolations = "audit_violations"

var metricSet = func() map[string]bool {
	m := make(map[string]bool, len(metricDefs))
	for _, d := range metricDefs {
		m[d.name] = true
	}
	for _, pm := range percentileMetrics {
		for _, rank := range percentileRanks {
			m[percentileName(rank, pm.series)] = true
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
	for _, pm := range percentileMetrics {
		xs, weights := pm.of(r)
		for k, v := range weightedPercentiles(xs, weights, percentileRanks) {
			out[percentileName(percentileRanks[k], pm.series)] = v
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
// each of ps (ascending): the smallest value whose cumulative weight reaches
// ceil(p/100 x total weight). weights == nil means unit weights. Empty input,
// or no weight, gives zeros. One sort and one cumulative pass serve every p.
func weightedPercentiles(xs []float64, weights []int, ps []float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	type wv struct {
		v float64
		w int
	}
	pairs := make([]wv, len(xs))
	var total int64
	for i, x := range xs {
		w := 1
		if weights != nil && i < len(weights) {
			w = weights[i]
		}
		pairs[i] = wv{v: x, w: w}
		total += int64(w)
	}
	if total <= 0 {
		return out
	}
	slices.SortFunc(pairs, func(a, b wv) int {
		switch {
		case a.v < b.v:
			return -1
		case b.v < a.v:
			return 1
		}
		return 0
	})
	var cum int64
	i := 0
	for k, p := range ps {
		// Nearest rank: ceil(p/100 * total), clamped to [1, total].
		rank := int64(float64(total) * p / 100)
		if float64(rank) < float64(total)*p/100 {
			rank++
		}
		rank = min(max(rank, 1), total)
		for i < len(pairs)-1 && cum+int64(pairs[i].w) < rank {
			cum += int64(pairs[i].w)
			i++
		}
		out[k] = pairs[i].v
	}
	return out
}
