package figures

import (
	"context"
	"fmt"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/stats"
	"cdnconsistency/internal/topology"
)

// SimScale sizes the Section-4/5 simulation figures. Every figure builds
// its runs through plan.Scenario: a cell copies Scenario, edits what it
// sweeps, and runs it at Seed (ext-catalog's content i at Seed+i), so each
// cell passes Scenario.Validate and can be written out as a plan and rerun.
type SimScale struct {
	// Scenario is what every figure starts from: the topology, the game,
	// the server TTL where a figure doesn't sweep it (10 s, consistent with
	// Section 4's magnitudes; Section 5 uses 60 s) and the runtime auditor,
	// whose violations abort a figure and which never changes a number.
	Scenario plan.Scenario
	Seed     int64
	// Parallel bounds how many independent simulation runs a figure may
	// execute concurrently (<= 1 means serial). Each run is deterministic
	// from its explicit seed, so the setting never changes any number.
	Parallel int

	// Ctx, when non-nil, makes every simulation run cancellable: cancelling
	// it aborts in-flight runs promptly with the context's error.
	Ctx context.Context
	// Runs, when non-nil, shares runs across the figures that use it: each
	// distinct run is simulated once (see RunTable). Nil simulates every
	// run a figure asks for.
	Runs *RunTable

	// observe, when set, is called with every cell run is asked for, from
	// whichever goroutine builds it.
	observe func(cell)
}

// DefaultSimScale reproduces the paper's deployment: 170 nodes, 5 users
// each, one trace day of 306 snapshots (the scenario's default game).
func DefaultSimScale() SimScale {
	users := 5
	return SimScale{
		Scenario: plan.Scenario{
			Servers:        170,
			UsersPerServer: &users,
			Clusters:       20,
			ServerTTL:      secs(10),
		},
		Seed: 1,
	}
}

// SmallSimScale keeps benches fast while preserving orderings.
func SmallSimScale() SimScale {
	var phases []plan.PhaseSpec
	for i := 0; i < 3; i++ {
		phases = append(phases,
			plan.PhaseSpec{Name: "play", Duration: plan.Duration(5 * time.Minute), MeanGap: secs(15)},
			plan.PhaseSpec{Name: "break", Duration: plan.Duration(4 * time.Minute)},
		)
	}
	users := 2
	return SimScale{
		Scenario: plan.Scenario{
			Servers:        60,
			UsersPerServer: &users,
			Clusters:       8,
			Game:           &plan.GameSpec{Phases: phases, SizeKB: 1},
			ServerTTL:      secs(10),
		},
		Seed: 1,
	}
}

// secs is n seconds as a scenario duration.
func secs(n int) plan.Duration { return plan.Duration(time.Duration(n) * time.Second) }

// section4Methods are the three methods the Section 4 figures compare.
var section4Methods = []consistency.Method{consistency.MethodPush, consistency.MethodInvalidation, consistency.MethodTTL}

// system names method m on infra after the method.
func system(m consistency.Method, infra consistency.Infra) core.System {
	return core.System{Name: m.String(), Method: m, Infra: infra}
}

func methodInfraTable(id, title, note string, scale SimScale, infra consistency.Infra) (*Table, error) {
	t := &Table{
		ID: id, Title: title, Note: note,
		Header: []string{"method", "server_mean_s", "server_p5/med/p95", "user_mean_s", "user_p5/med/p95"},
	}
	results, err := scale.run(t, len(section4Methods), func(i int) cell {
		return cell{sys: system(section4Methods[i], infra), sc: scale.Scenario}
	})
	if err != nil {
		return nil, err
	}
	for i, m := range section4Methods {
		t.AddRow(append([]string{m.String()}, inconsistencyCells(results[i])...)...)
	}
	return t, nil
}

// inconsistencyCells renders a run's server and user inconsistency: the
// mean and the p5/median/p95 of the per-server, then the per-user, means.
func inconsistencyCells(res *cdn.Result) []string {
	ss, _ := stats.Summarize(res.ServerAvgInconsistency)
	us, _ := stats.Summarize(res.UserAvgInconsistency)
	return []string{
		f3(res.MeanServerInconsistency()), fmt.Sprintf("%.2f/%.2f/%.2f", ss.P5, ss.Median, ss.P95),
		f3(res.MeanUserInconsistency()), fmt.Sprintf("%.2f/%.2f/%.2f", us.P5, us.Median, us.P95),
	}
}

// finalFrac is the share of live servers holding the final snapshot.
func finalFrac(res *cdn.Result) float64 {
	if res.LiveServers == 0 {
		return 0
	}
	return float64(res.LiveServersAtFinalVersion) / float64(res.LiveServers)
}

// bothInfras is the unicast/multicast sweep axis several figures share.
var bothInfras = []consistency.Infra{consistency.InfraUnicast, consistency.InfraMulticast}

// Fig14 regenerates Figure 14: per-server and per-user inconsistency in the
// unicast infrastructure.
func Fig14(scale SimScale) (*Table, error) {
	return methodInfraTable("fig14",
		"unicast: server and user inconsistency per method",
		"paper: Push < Invalidation < TTL; TTL mean ~TTL/2",
		scale, consistency.InfraUnicast)
}

// Fig15 regenerates Figure 15: the same comparison in the binary multicast
// tree, where TTL amplifies with depth.
func Fig15(scale SimScale) (*Table, error) {
	return methodInfraTable("fig15",
		"multicast (binary tree): server and user inconsistency per method",
		"paper: same ordering; lower tree layers roughly multiply TTL inconsistency by depth",
		scale, consistency.InfraMulticast)
}

// Fig16 regenerates Figure 16: total consistency-maintenance traffic cost
// (km*KB) per method and infrastructure.
func Fig16(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "consistency maintenance traffic cost (km*KB)",
		Note:   "multicast saves >= 2.8e7 km*KB over unicast for every method; Push < Invalidation < TTL",
		Header: []string{"method", "unicast_kmKB", "multicast_kmKB", "saving_kmKB"},
	}
	results, err := scale.run(t, len(section4Methods)*len(bothInfras), func(i int) cell {
		return cell{sys: system(section4Methods[i/len(bothInfras)], bothInfras[i%len(bothInfras)]), sc: scale.Scenario}
	})
	if err != nil {
		return nil, err
	}
	for mi := range section4Methods {
		u := results[mi*2].Accounting.Total().KmKB
		m := results[mi*2+1].Accounting.Total().KmKB
		t.AddRow(section4Methods[mi].String(), e2(u), e2(m), e2(u-m))
	}
	return t, nil
}

// Fig17 regenerates Figure 17: TTL traffic cost vs the content servers' TTL.
func Fig17(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "TTL-method traffic cost vs content-server TTL",
		Note:   "cost decreases with TTL in both infrastructures",
		Header: []string{"ttl_s", "unicast_kmKB", "multicast_kmKB"},
	}
	ttls := []int{10, 20, 30, 40, 50, 60}
	results, err := scale.run(t, len(ttls)*len(bothInfras), func(i int) cell {
		sc := scale.Scenario
		sc.ServerTTL = secs(ttls[i/len(bothInfras)])
		return cell{sys: system(consistency.MethodTTL, bothInfras[i%len(bothInfras)]), sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for ti, ttl := range ttls {
		row := []string{d0(ttl)}
		for ii := range bothInfras {
			row = append(row, e2(results[ti*len(bothInfras)+ii].Accounting.Total().KmKB))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig18 regenerates Figure 18: Invalidation vs the end-user TTL.
func Fig18(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "fig18",
		Title:  "Invalidation: inconsistency and cost vs end-user TTL",
		Note:   "inconsistency grows and traffic cost falls as end-user TTL grows, both infrastructures",
		Header: []string{"user_ttl_s", "infra", "server_p5/med/p95_s", "kmKB"},
	}
	userTTLs := []int{10, 30, 60, 90, 120}
	results, err := scale.run(t, len(userTTLs)*len(bothInfras), func(i int) cell {
		sc := scale.Scenario
		sc.UserTTL = secs(userTTLs[i/len(bothInfras)])
		return cell{sys: system(consistency.MethodInvalidation, bothInfras[i%len(bothInfras)]), sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		s, _ := stats.Summarize(res.ServerAvgInconsistency)
		t.AddRow(d0(userTTLs[i/len(bothInfras)]), bothInfras[i%len(bothInfras)].String(),
			fmt.Sprintf("%.2f/%.2f/%.2f", s.P5, s.Median, s.P95),
			e2(res.Accounting.Total().KmKB))
	}
	return t, nil
}

// Fig19 regenerates Figure 19: scalability vs update packet size. A modest
// uplink makes the provider's output-port serialization visible.
func Fig19(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "fig19",
		Title:  "server inconsistency vs update package size",
		Note:   "growth rate Push > Invalidation > TTL in unicast; multicast grows far slower",
		Header: []string{"size_kb", "infra", "push_s", "invalidation_s", "ttl_s"},
	}
	sizes := []float64{1, 100, 500}
	return scalabilityTable(t, scale, []string{f1(sizes[0]), f1(sizes[1]), f1(sizes[2])},
		func(x int, sc *plan.Scenario) { sc.UpdateSizeKB = sizes[x] })
}

// Fig20 regenerates Figure 20: scalability vs network size.
func Fig20(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "fig20",
		Title:  "server inconsistency vs network size",
		Note:   "in unicast TTL stays flat while Push/Invalidation grow; in multicast TTL grows fastest (tree depth)",
		Header: []string{"servers", "infra", "push_s", "invalidation_s", "ttl_s"},
	}
	var xs []string
	for k := 1; k <= 5; k++ {
		xs = append(xs, d0(k*scale.Scenario.Servers))
	}
	return scalabilityTable(t, scale, xs,
		func(x int, sc *plan.Scenario) { sc.Servers = (x + 1) * scale.Scenario.Servers })
}

// scalabilityTable runs Push, Invalidation and TTL on both infrastructures
// behind a 2000 KB/s uplink at each point of a scalability sweep (point x
// labelled xs[x], set on a cell's scenario by at) and tabulates mean server
// inconsistency per (point, infrastructure) row.
func scalabilityTable(t *Table, scale SimScale, xs []string, at func(x int, sc *plan.Scenario)) (*Table, error) {
	methods := section4Methods
	perX := len(bothInfras) * len(methods)
	results, err := scale.run(t, len(xs)*perX, func(i int) cell {
		sc := scale.Scenario
		sc.UplinkKBps = 2000
		at(i/perX, &sc)
		return cell{sys: system(methods[i%len(methods)], bothInfras[(i/len(methods))%len(bothInfras)]), sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for xi, x := range xs {
		for ii, infra := range bothInfras {
			row := []string{x, infra.String()}
			for mi := range methods {
				row = append(row, f3(results[xi*perX+ii*len(methods)+mi].MeanServerInconsistency()))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// section5 scales to the paper's Section 5.3 deployment: each PlanetLab
// node simulates 5 content servers (850 total), 20 clusters, content-server
// TTL 60 s. At this cluster size the self-adaptive savings outweigh the
// supernode push overhead, producing the paper's message ordering.
func (s SimScale) section5() SimScale {
	out := s
	out.Scenario.Servers = s.Scenario.Servers * 5
	out.Scenario.Clusters = 20
	out.Scenario.ServerTTL = secs(60)
	return out
}

// Fig22 regenerates Figure 22: update-message counts across the six
// systems, (a) to servers vs end-user TTL, (b) from the provider vs
// content-server TTL.
func Fig22(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "fig22",
		Title:  "update messages: (a) to servers vs end-user TTL, (b) from provider vs server TTL",
		Note:   "Push > Invalidation > Hybrid ~ TTL > HAT > Self; provider load lightest for Hybrid/HAT",
		Header: []string{"series", "x_s", "Push", "Invalidation", "TTL", "Self", "Hybrid", "HAT"},
	}
	systems := core.Systems()
	userTTLs := []int{10, 30, 60}
	srvTTLs := []int{20, 40, 60}
	// One grid over both panels: indices < len(userTTLs)*len(systems)
	// sweep the end-user TTL (22a), the rest the content-server TTL (22b).
	aJobs := len(userTTLs) * len(systems)
	s5 := scale.section5()
	results, err := s5.run(t, aJobs+len(srvTTLs)*len(systems), func(i int) cell {
		sc := s5.Scenario
		if i < aJobs {
			sc.UserTTL = secs(userTTLs[i/len(systems)])
			return cell{sys: systems[i%len(systems)], sc: sc}
		}
		j := i - aJobs
		sc.ServerTTL = secs(srvTTLs[j/len(systems)])
		return cell{sys: systems[j%len(systems)], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for ti, userTTL := range userTTLs {
		row := []string{"22a_msgs_to_servers", d0(userTTL)}
		for si := range systems {
			row = append(row, d0(results[ti*len(systems)+si].UpdateMsgsToServers))
		}
		t.AddRow(row...)
	}
	for ti, srvTTL := range srvTTLs {
		row := []string{"22b_msgs_from_provider", d0(srvTTL)}
		for si := range systems {
			row = append(row, d0(results[aJobs+ti*len(systems)+si].UpdateMsgsFromProvider))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig23 regenerates Figure 23: network load in km, split into update and
// light messages, for the six systems.
func Fig23(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "fig23",
		Title:  "consistency maintenance network load (km)",
		Note:   "HAT carries the lightest total load; TTL-family methods add light-message load for polling",
		Header: []string{"system", "update_km", "light_km", "total_km"},
	}
	systems := core.Systems()
	s5 := scale.section5()
	results, err := s5.run(t, len(systems), func(i int) cell {
		return cell{sys: systems[i], sc: s5.Scenario}
	})
	if err != nil {
		return nil, err
	}
	for i, sys := range systems {
		up := results[i].Accounting.ByClass[netmodel.ClassUpdate].Km
		light := results[i].Accounting.ByClass[netmodel.ClassLight].Km
		t.AddRow(sys.Name, e2(up), e2(light), e2(up+light))
	}
	return t, nil
}

// Fig24 regenerates Figure 24: user-observed inconsistency with server
// switching on every visit.
func Fig24(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "fig24",
		Title:  "% inconsistency observations vs end-user TTL (switch server every visit)",
		Note:   "TTL ~ Hybrid > HAT > Self > Push ~ Invalidation ~ 0; decreasing in end-user TTL",
		Header: []string{"user_ttl_s", "Push", "Invalidation", "TTL", "Self", "Hybrid", "HAT"},
	}
	systems := core.Systems()
	userTTLs := []int{10, 30, 60}
	s5 := scale.section5()
	results, err := s5.run(t, len(userTTLs)*len(systems), func(i int) cell {
		sc := s5.Scenario
		sc.UserTTL = secs(userTTLs[i/len(systems)])
		sc.UserSwitch = true
		return cell{sys: systems[i%len(systems)], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for ti, userTTL := range userTTLs {
		row := []string{d0(userTTL)}
		for si := range systems {
			row = append(row, f4(results[ti*len(systems)+si].InconsistentObservationFrac()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// sharedTopology builds one topology for ablations that need to compare
// tree variants on identical node sets. It places no end-users: they are
// drawn after every server, so they cannot move one.
func sharedTopology(scale SimScale) (*topology.Topology, error) {
	return topology.Generate(topology.Config{Servers: scale.Scenario.Servers, Seed: scale.Seed})
}
