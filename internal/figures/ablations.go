package figures

import (
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/overlay"
)

// The ablations quantify the design decisions DESIGN.md calls out.

// AblationQueue toggles the output-port queuing model and shows that
// without it Push no longer degrades with packet size — i.e. the queuing
// model is what produces the paper's Figure 19 scalability result.
func AblationQueue(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "ablation-queue",
		Title:  "output-port queuing ablation: Push inconsistency at 500KB updates",
		Note:   "queuing on reproduces Figure 19's Push degradation; off flattens it",
		Header: []string{"queuing", "push_mean_s"},
	}
	toggles := []bool{false, true}
	results, err := scale.run(t, len(toggles), func(i int) cell {
		sc := scale.Scenario
		sc.UpdateSizeKB = 500
		sc.UplinkKBps = 2000
		sc.DisableQueuing = toggles[i]
		return cell{sys: core.SystemPush, sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for i, disable := range toggles {
		t.AddRow(onOff(!disable), f3(results[i].MeanServerInconsistency()))
	}
	return t, nil
}

// AblationProximity compares the proximity-aware multicast tree against
// first-fit attachment on total edge length and resulting traffic cost.
func AblationProximity(scale SimScale) (*Table, error) {
	topo, err := sharedTopology(scale)
	if err != nil {
		return nil, err
	}
	locs := make([]geo.Point, 0, len(topo.Servers)+1)
	locs = append(locs, topo.Provider.Loc)
	for _, s := range topo.Servers {
		locs = append(locs, s.Loc)
	}
	prox, err := overlay.BuildMulticast(locs, 2)
	if err != nil {
		return nil, err
	}
	random, err := overlay.BuildRandomMulticast(len(locs), 2)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-proximity",
		Title:  "proximity-aware vs first-fit multicast tree",
		Note:   "proximity-awareness is why multicast saves km in Figures 16/23",
		Header: []string{"tree", "total_edge_km", "max_depth"},
	}
	t.AddRow("proximity", f1(prox.TotalEdgeKm(locs, nil)), d0(prox.MaxDepth()))
	t.AddRow("first-fit", f1(random.TotalEdgeKm(locs, nil)), d0(random.MaxDepth()))
	return t, nil
}

// AblationAdaptive compares the paper's self-adaptive switch against the
// related-work adaptive-TTL predictor on message count and inconsistency
// under the bursty live-game workload (Section 5.1's argument).
func AblationAdaptive(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "ablation-adaptive",
		Title:  "self-adaptive switch vs adaptive-TTL prediction",
		Note:   "Section 5.1: prediction mishandles abrupt silence/burst changes; the switch does not",
		Header: []string{"method", "update_msgs", "server_mean_s"},
	}
	methods := []consistency.Method{consistency.MethodSelfAdaptive, consistency.MethodAdaptiveTTL, consistency.MethodTTL}
	results, err := scale.run(t, len(methods), func(i int) cell {
		sc := scale.Scenario
		sc.ServerTTL = secs(60)
		return cell{sys: system(methods[i], consistency.InfraUnicast), sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for i, m := range methods {
		t.AddRow(m.String(), d0(results[i].UpdateMsgsToServers), f3(results[i].MeanServerInconsistency()))
	}
	return t, nil
}

// AblationHilbert compares Hilbert-curve supernode clustering against naive
// modulo grouping by measuring HAT's update network load on each.
func AblationHilbert(scale SimScale) (*Table, error) {
	topo, err := sharedTopology(scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-hilbert",
		Title:  "Hilbert clustering vs modulo grouping: cluster diameter",
		Note:   "locality-preserving clusters keep intra-cluster polling short (Section 5.2)",
		Header: []string{"clustering", "avg_cluster_diameter_km"},
	}
	hilbert, err := topo.HilbertClusters(scale.Scenario.Clusters)
	if err != nil {
		return nil, err
	}
	diameter := func(members []int) float64 {
		var maxD float64
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				d := geo.DistanceKm(topo.Servers[members[i]].Loc, topo.Servers[members[j]].Loc)
				if d > maxD {
					maxD = d
				}
			}
		}
		return maxD
	}
	var hilbertSum float64
	for _, c := range hilbert {
		hilbertSum += diameter(c.Members)
	}
	t.AddRow("hilbert", f1(hilbertSum/float64(len(hilbert))))

	var moduloSum float64
	k := scale.Scenario.Clusters
	for c := 0; c < k; c++ {
		var members []int
		for i := c; i < len(topo.Servers); i += k {
			members = append(members, i)
		}
		moduloSum += diameter(members)
	}
	t.AddRow("modulo", f1(moduloSum/float64(k)))
	return t, nil
}

// AblationDepth sweeps the multicast tree's arity under the TTL method: a
// larger degree gives a shallower tree and so less of the depth-driven TTL
// amplification the paper remarks on for d-ary trees (Section 4).
func AblationDepth(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "ablation-depth",
		Title:  "multicast arity vs inconsistency and depth (TTL method)",
		Note:   "larger d -> shallower tree -> less TTL amplification (Section 4 d-ary remark)",
		Header: []string{"degree", "depth", "ttl_mean_s"},
	}
	degrees := []int{2, 4, 8}
	results, err := scale.run(t, len(degrees), func(i int) cell {
		// The scale's topology and server TTL without its game or cluster
		// count: updates default to a DefaultGame draw with this seed.
		sc := scale.Scenario
		sc.Game = nil
		sc.Clusters = 0
		sc.TreeDegree = degrees[i]
		return cell{sys: core.System{Name: "TTL/Multicast", Method: consistency.MethodTTL, Infra: consistency.InfraMulticast}, sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for i, d := range degrees {
		t.AddRow(d0(d), d0(results[i].TreeDepth), f3(results[i].MeanServerInconsistency()))
	}
	return t, nil
}
