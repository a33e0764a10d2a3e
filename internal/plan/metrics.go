package plan

import (
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
// users, and nearest-rank makes the cohort and explicit models report
// bit-identical percentiles — which the cohort_explicit equivalence check
// relies on.
var metricDefs = []struct {
	name string
	fn   func(*cdn.Result) float64
}{
	// Inconsistency (seconds).
	{"mean_server_inconsistency", func(r *cdn.Result) float64 { return r.MeanServerInconsistency() }},
	{"p50_server_inconsistency", func(r *cdn.Result) float64 { return weightedPercentile(r.ServerAvgInconsistency, nil, 50) }},
	{"p95_server_inconsistency", func(r *cdn.Result) float64 { return weightedPercentile(r.ServerAvgInconsistency, nil, 95) }},
	{"p99_server_inconsistency", func(r *cdn.Result) float64 { return weightedPercentile(r.ServerAvgInconsistency, nil, 99) }},
	{"mean_user_inconsistency", func(r *cdn.Result) float64 { return r.MeanUserInconsistency() }},
	{"p50_user_inconsistency", func(r *cdn.Result) float64 { return weightedPercentile(r.UserAvgInconsistency, r.UserWeights, 50) }},
	{"p95_user_inconsistency", func(r *cdn.Result) float64 { return weightedPercentile(r.UserAvgInconsistency, r.UserWeights, 95) }},
	{"p99_user_inconsistency", func(r *cdn.Result) float64 { return weightedPercentile(r.UserAvgInconsistency, r.UserWeights, 99) }},

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

// MetricAuditViolations is the metric set to 1 when the runtime auditor
// aborts a cell's run with a violated invariant.
const MetricAuditViolations = "audit_violations"

var metricSet = func() map[string]bool {
	m := make(map[string]bool, len(metricDefs))
	for _, d := range metricDefs {
		m[d.name] = true
	}
	return m
}()

// MetricNames lists every assertable metric, sorted.
func MetricNames() []string {
	out := make([]string, 0, len(metricDefs))
	for _, d := range metricDefs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func knownMetric(name string) bool { return metricSet[name] }

// Metrics extracts every assertable metric from a completed run.
func Metrics(r *cdn.Result) map[string]float64 {
	out := make(map[string]float64, len(metricDefs))
	for _, d := range metricDefs {
		out[d.name] = d.fn(r)
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

// weightedPercentile returns the weighted nearest-rank p-th percentile of
// xs: the smallest value whose cumulative weight reaches ceil(p/100 x total
// weight). weights == nil means unit weights. Empty input returns 0.
func weightedPercentile(xs []float64, weights []int, p float64) float64 {
	if len(xs) == 0 {
		return 0
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
		return 0
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
	// Nearest rank: ceil(p/100 * total), clamped to [1, total].
	rank := int64(float64(total) * p / 100)
	if float64(rank) < float64(total)*p/100 {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for _, pr := range pairs {
		cum += int64(pr.w)
		if cum >= rank {
			return pr.v
		}
	}
	return pairs[len(pairs)-1].v
}
