package figures

import (
	"fmt"
	"time"

	"cdnconsistency/internal/analysis"
	"cdnconsistency/internal/stats"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/tracegen"
)

// TraceEnv bundles a synthetic crawl with its analysis dataset; every
// Section-3 figure consumes one.
type TraceEnv struct {
	Dataset *analysis.Dataset
	Gen     *tracegen.Result
}

// TraceScale sizes the synthetic crawl.
type TraceScale struct {
	Servers int
	Days    int
	Users   int
	Seed    int64
}

// DefaultTraceScale approximates the paper's crawl at laptop scale: the
// paper polled 3000 servers for 15 days with 200 user vantage points.
func DefaultTraceScale() TraceScale {
	return TraceScale{Servers: 600, Days: 5, Users: 120, Seed: 42}
}

// SmallTraceScale keeps benches fast.
func SmallTraceScale() TraceScale {
	return TraceScale{Servers: 120, Days: 2, Users: 40, Seed: 42}
}

// NewTraceEnv generates the crawl and indexes it.
func NewTraceEnv(scale TraceScale) (*TraceEnv, error) {
	gen, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: scale.Servers, Seed: scale.Seed},
		Days:     scale.Days,
		Users:    scale.Users,
		Seed:     scale.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	ds, err := analysis.NewDataset(gen.Trace)
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	return &TraceEnv{Dataset: ds, Gen: gen}, nil
}

func cdfRows(t *Table, lengths []float64, points int) error {
	cdf, err := stats.NewCDF(lengths)
	if err != nil {
		return err
	}
	for _, p := range cdf.Points(points) {
		t.AddRow(f1(p.X), f4(p.P))
	}
	return nil
}

// Fig03 regenerates Figure 3: the CDF of inconsistency lengths across all
// content requests.
func Fig03(env *TraceEnv) (*Table, error) {
	ri := env.Dataset.RequestInconsistenciesAll()
	t := &Table{
		ID:     "fig03",
		Title:  "CDF of inconsistency lengths, all CDN requests",
		Note:   "10.1% < 10s, 20.3% > 50s, mean ~40s",
		Header: []string{"length_s", "cdf"},
	}
	if err := cdfRows(t, ri.Lengths, 25); err != nil {
		return nil, fmt.Errorf("figures: fig03: %w", err)
	}
	cdf, _ := stats.NewCDF(ri.Lengths)
	t.AddRow("# frac<10s", f4(cdf.At(10)))
	t.AddRow("# frac>50s", f4(1-cdf.At(50)))
	t.AddRow("# mean_s", f2(ri.Mean()))
	if ci, err := stats.BootstrapMeanCI(ri.Lengths, 200, 0.95, 1); err == nil {
		t.AddRow("# mean_95ci_s", fmt.Sprintf("[%.2f, %.2f]", ci.Lo, ci.Hi))
	}
	return t, nil
}

// Fig04 regenerates Figure 4(a)-(e): the user-perspective measures.
func Fig04(env *TraceEnv) (*Table, error) {
	d := env.Dataset
	uv, err := d.UserView(0)
	if err != nil {
		return nil, fmt.Errorf("figures: fig04: %w", err)
	}
	t := &Table{
		ID:     "fig04",
		Title:  "user perspective: redirects, inconsistent servers, run lengths",
		Note:   "13-17% redirects, ~11% inconsistent servers, median run 160s, 70% of inconsistency runs <= 10s",
		Header: []string{"series", "x", "value"},
	}
	if s, err := stats.Summarize(uv.RedirectFractions); err == nil {
		t.AddRow("4a_redirect_frac", "p5/median/p95", fmt.Sprintf("%.3f/%.3f/%.3f", s.P5, s.Median, s.P95))
	}
	for day := 0; day < d.Days(); day++ {
		frac, err := d.InconsistentServerFraction(day)
		if err != nil {
			return nil, err
		}
		t.AddRow("4b_inconsistent_servers", d0(day), f4(frac))
	}
	if s, err := stats.Summarize(uv.ContinuousConsistency); err == nil {
		t.AddRow("4c_consistency_run_s", "p5/median/p95", fmt.Sprintf("%.1f/%.1f/%.1f", s.P5, s.Median, s.P95))
	}
	if s, err := stats.Summarize(uv.ContinuousInconsistency); err == nil {
		t.AddRow("4d_inconsistency_run_s", "p5/median/p95", fmt.Sprintf("%.1f/%.1f/%.1f", s.P5, s.Median, s.P95))
	}
	for period := 10; period <= 60; period += 10 {
		runs, err := d.ResampledInconsistencyRuns(0, time.Duration(period)*time.Second)
		if err != nil {
			return nil, err
		}
		if len(runs) == 0 {
			t.AddRow("4e_runs_vs_period", d0(period), "-")
			continue
		}
		s, _ := stats.Summarize(runs)
		t.AddRow("4e_runs_vs_period", d0(period), fmt.Sprintf("%.1f/%.1f/%.1f", s.P5, s.Median, s.P95))
	}
	return t, nil
}

// Fig05 regenerates Figure 5: inner-cluster inconsistency (same-location
// clusters, cluster-local alphas); its CDF is ~linear on [0, TTL].
func Fig05(env *TraceEnv) (*Table, error) {
	d := env.Dataset
	byCity := make(map[int]map[string]bool)
	for _, s := range d.Trace.Servers {
		if byCity[s.City] == nil {
			byCity[s.City] = make(map[string]bool)
		}
		byCity[s.City][s.ID] = true
	}
	var lengths []float64
	for day := 0; day < d.Days(); day++ {
		for _, members := range byCity {
			if len(members) < 2 {
				continue
			}
			ri, err := d.ScopedInconsistencies(day, members, members)
			if err != nil {
				return nil, err
			}
			lengths = append(lengths, ri.Lengths...)
		}
	}
	t := &Table{
		ID:     "fig05",
		Title:  "CDF of inner-cluster inconsistency lengths",
		Note:   "31.5% < 10s; ~linear CDF up to TTL=60s",
		Header: []string{"length_s", "cdf"},
	}
	if err := cdfRows(t, lengths, 25); err != nil {
		return nil, fmt.Errorf("figures: fig05: %w", err)
	}
	return t, nil
}

// Fig06 regenerates Figure 6: the TTL inference.
func Fig06(env *TraceEnv) (*Table, error) {
	ri := env.Dataset.RequestInconsistenciesAll()
	sweep, err := analysis.TTLSweep(ri.Lengths, 40*time.Second, 80*time.Second, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("figures: fig06: %w", err)
	}
	t := &Table{
		ID:     "fig06",
		Title:  "TTL inference: deviation sweep and theory RMSE",
		Note:   "minimum deviation at TTL=60s; RMSE 0.046 (60s) vs 0.096 (80s)",
		Header: []string{"candidate_ttl_s", "deviation"},
	}
	for _, s := range sweep {
		t.AddRow(f1(s.CandidateTTL.Seconds()), f4(s.Deviation))
	}
	inferred, err := analysis.InferTTL(ri.Lengths, 40*time.Second, 80*time.Second, 5*time.Second)
	if err != nil {
		return nil, err
	}
	t.AddRow("# inferred_ttl_s", f1(inferred.Seconds()))
	for _, ttl := range []time.Duration{60 * time.Second, 80 * time.Second} {
		rmse, err := analysis.TTLTheoryRMSE(ri.Lengths, ttl, 30)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("# rmse_ttl_%ds", int(ttl.Seconds())), f4(rmse))
	}
	if share, err := analysis.TTLShare(ri.Lengths, inferred); err == nil {
		t.AddRow("# ttl_share_of_inconsistency", f3(share))
	}
	return t, nil
}

// Fig07 regenerates Figure 7: the provider's own inconsistency.
func Fig07(env *TraceEnv) (*Table, error) {
	d := env.Dataset
	var lengths []float64
	var fresh, total int
	for day := 0; day < d.Days(); day++ {
		ri, err := d.ProviderInconsistencies(day)
		if err != nil {
			return nil, err
		}
		lengths = append(lengths, ri.Lengths...)
		fresh += ri.Fresh
		total += ri.Total
	}
	t := &Table{
		ID:     "fig07",
		Title:  "CDF of provider-served inconsistency lengths",
		Note:   "90.2% < 10s, mean 3.43s",
		Header: []string{"length_s", "cdf"},
	}
	if len(lengths) == 0 {
		t.AddRow("# all_fresh", d0(total))
		return t, nil
	}
	if err := cdfRows(t, lengths, 15); err != nil {
		return nil, err
	}
	mean, _ := stats.Mean(lengths)
	t.AddRow("# mean_s", f2(mean))
	t.AddRow("# fresh_frac", f4(float64(fresh)/float64(total)))
	return t, nil
}

// Fig08 regenerates Figure 8: consistency ratio vs provider distance.
func Fig08(env *TraceEnv) (*Table, error) {
	points, corr, err := env.Dataset.DistanceCorrelation(1000)
	if err != nil {
		return nil, fmt.Errorf("figures: fig08: %w", err)
	}
	t := &Table{
		ID:     "fig08",
		Title:  "avg consistency ratio vs provider-server distance",
		Note:   "essentially flat, Pearson r = 0.11",
		Header: []string{"distance_km", "avg_ratio", "servers"},
	}
	for _, p := range points {
		t.AddRow(f1(p.DistanceKm), f4(p.AvgRatio), d0(p.Servers))
	}
	t.AddRow("# pearson_r", f3(corr), "")
	return t, nil
}

// Fig09 regenerates Figure 9: intra- vs inter-ISP inconsistency.
func Fig09(env *TraceEnv) (*Table, error) {
	clusters, err := env.Dataset.ISPAnalysis(0)
	if err != nil {
		return nil, fmt.Errorf("figures: fig09: %w", err)
	}
	t := &Table{
		ID:     "fig09",
		Title:  "intra- vs inter-ISP inconsistency per ISP cluster",
		Note:   "inter >= intra everywhere; average increment in [3.69, 23.2]s",
		Header: []string{"isp", "servers", "intra_p5/med/p95", "inter_p5/med/p95", "avg_intra", "avg_inter"},
	}
	var incMin, incMax float64
	first := true
	for _, c := range clusters {
		t.AddRow(d0(c.ISP), d0(c.Servers),
			fmt.Sprintf("%.1f/%.1f/%.1f", c.Intra.P5, c.Intra.Median, c.Intra.P95),
			fmt.Sprintf("%.1f/%.1f/%.1f", c.Inter.P5, c.Inter.Median, c.Inter.P95),
			f2(c.AvgIntra), f2(c.AvgInter))
		inc := c.AvgInter - c.AvgIntra
		if first || inc < incMin {
			incMin = inc
		}
		if first || inc > incMax {
			incMax = inc
		}
		first = false
	}
	t.AddRow("# increment_range_s", fmt.Sprintf("[%.2f, %.2f]", incMin, incMax), "", "", "", "")
	return t, nil
}

// Fig10 regenerates Figure 10: provider response times, absence lengths,
// and the absence effect on inconsistency.
func Fig10(env *TraceEnv) (*Table, error) {
	d := env.Dataset
	t := &Table{
		ID:     "fig10",
		Title:  "provider response time; absences and their inconsistency effect",
		Note:   "responses in [0.5,2.1]s; absences 30.4% <10s, 93.1% <50s; inconsistency grows 38.1->43.9s with absence length",
		Header: []string{"series", "x", "value"},
	}
	rts, err := d.ProviderResponseTimes(0)
	if err != nil {
		return nil, err
	}
	if s, err := stats.Summarize(rts); err == nil {
		t.AddRow("10a_response_time_s", "p5/median/p95", fmt.Sprintf("%.2f/%.2f/%.2f", s.P5, s.Median, s.P95))
	}
	var absLens []float64
	for day := 0; day < d.Days(); day++ {
		abs, err := d.Absences(day)
		if err != nil {
			return nil, err
		}
		for _, a := range abs {
			absLens = append(absLens, a.Length.Seconds())
		}
	}
	if len(absLens) > 0 {
		cdf, _ := stats.NewCDF(absLens)
		t.AddRow("10b_absence_frac_under_10s", "", f4(cdf.At(10)))
		t.AddRow("10b_absence_frac_under_50s", "", f4(cdf.At(50)))
	}
	bins, err := d.AbsenceEffect(0, 50*time.Second, 400*time.Second)
	if err != nil {
		return nil, err
	}
	for _, b := range bins {
		if b.N == 0 && b.MaxLength > 0 {
			continue
		}
		t.AddRow("10c_avg_inconsistency_s", f1(b.MaxLength.Seconds()), f2(b.AvgI))
	}
	prox, err := d.AbsenceProximityEffect(0, 60*time.Second, nil)
	if err != nil {
		return nil, err
	}
	for _, p := range prox {
		if p.N == 0 {
			continue
		}
		t.AddRow("10d_before/after_s", f1(p.GroupMax.Seconds()),
			fmt.Sprintf("%.1f/%.1f", p.AvgBefore, p.AvgAfter))
	}
	return t, nil
}

// Fig11 regenerates Figure 11: the static-tree existence tests.
func Fig11(env *TraceEnv) (*Table, error) {
	d := env.Dataset
	clusters := make(map[string][]string)
	for _, s := range d.Trace.Servers {
		key := fmt.Sprintf("city-%d", s.City)
		clusters[key] = append(clusters[key], s.ID)
	}
	daily, err := d.ClusterDailyInconsistency(clusters)
	if err != nil {
		return nil, fmt.Errorf("figures: fig11: %w", err)
	}
	t := &Table{
		ID:     "fig11",
		Title:  "static multicast-tree non-existence: cluster min/max and rank churn",
		Note:   "per-cluster daily averages vary widely; server ranks churn across days",
		Header: []string{"cluster", "min_avg_s", "max_avg_s"},
	}
	limit := 20
	for i, cd := range daily {
		if i >= limit {
			break
		}
		t.AddRow(cd.Key, f2(cd.Min), f2(cd.Max))
	}
	// Rank stability of the largest cluster's servers (Figures 11(c,d)).
	if largest := analysis.LargestCluster(clusters); len(largest) >= 2 {
		rs, err := d.ServerRankStability(largest)
		if err == nil {
			t.AddRow("# server_rank_spread", f3(rs.MeanSpread), "")
		}
	}
	return t, nil
}

// Fig12 regenerates Figure 12: the dynamic-tree test (CDF of per-server
// maximum inconsistency).
func Fig12(env *TraceEnv) (*Table, error) {
	d := env.Dataset
	t := &Table{
		ID:     "fig12",
		Title:  "CDF of per-server maximum inconsistency (absence-free servers)",
		Note:   "76.7%/86.9% of maxima below TTL on the two sampled days",
		Header: []string{"series", "x", "value"},
	}
	days := d.Days()
	if days > 2 {
		days = 2
	}
	for day := 0; day < days; day++ {
		res, err := d.MaxInconsistencyTest(day, 60*time.Second)
		if err != nil {
			return nil, err
		}
		if len(res.Maxima) == 0 {
			continue
		}
		cdf, err := res.MaximaCDF()
		if err != nil {
			return nil, err
		}
		for _, p := range cdf.Points(12) {
			t.AddRow(fmt.Sprintf("day%d_cdf", day), f1(p.X), f4(p.P))
		}
		t.AddRow(fmt.Sprintf("# day%d_frac_under_ttl", day), "", f4(res.FracUnderTTL))
		t.AddRow(fmt.Sprintf("# day%d_frac_under_2ttl", day), "", f4(res.FracUnder2TTL))
	}
	return t, nil
}

// TreeVerdictTable summarizes the Section 3.5 conclusion.
func TreeVerdictTable(env *TraceEnv) (*Table, error) {
	d := env.Dataset
	clusters := make(map[string][]string)
	for _, s := range d.Trace.Servers {
		key := fmt.Sprintf("city-%d", s.City)
		clusters[key] = append(clusters[key], s.ID)
	}
	v, err := d.TreeExistence(clusters, 60*time.Second)
	if err != nil {
		return nil, fmt.Errorf("figures: verdict: %w", err)
	}
	t := &Table{
		ID:     "tree-verdict",
		Title:  "Section 3.5 verdict: does the CDN use a multicast tree?",
		Note:   "paper concludes: no static tree, no dynamic tree -> unicast TTL polling",
		Header: []string{"metric", "value"},
	}
	t.AddRow("cluster_rank_spread", f3(v.ClusterRankSpread))
	t.AddRow("server_rank_spread", f3(v.ServerRankSpread))
	t.AddRow("frac_under_ttl", f3(v.FracUnderTTL))
	t.AddRow("frac_under_2ttl", f3(v.FracUnder2TTL))
	t.AddRow("static_tree_likely", fmt.Sprintf("%v", v.StaticTreeLikely))
	t.AddRow("dynamic_tree_likely", fmt.Sprintf("%v", v.DynamicTreeLikely))
	return t, nil
}
