package figures

import (
	"fmt"
	"slices"
	"time"

	"cdnconsistency/internal/catalog"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/workload"
)

// The extension studies cover what the paper discusses but does not
// evaluate: the broadcast taxonomy class, node failures on the multicast
// tree, cooperative leases, and the DNS request-routing plane.

// ExtBroadcast quantifies why the paper dismisses broadcast (Section 1):
// flooding matches Push's consistency at a message cost quadratic in
// cluster size.
func ExtBroadcast(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "ext-broadcast",
		Title:  "broadcast (cluster flooding) vs push: consistency and message blowup",
		Note:   "paper Section 1: broadcast cannot scale due to an overwhelming number of redundant update messages",
		Header: []string{"system", "update_msgs", "server_mean_s"},
	}
	systems := []core.System{
		core.SystemPush,
		{Name: "Broadcast", Method: consistency.MethodPush, Infra: consistency.InfraBroadcast},
	}
	results, err := scale.run(t, len(systems), func(i int) cell {
		return cell{sys: systems[i], sc: scale.Scenario}
	})
	if err != nil {
		return nil, err
	}
	push, bcast := results[0], results[1]
	t.AddRow("Push/unicast", d0(push.UpdateMsgsToServers), f3(push.MeanServerInconsistency()))
	t.AddRow("Push/broadcast", d0(bcast.UpdateMsgsToServers), f3(bcast.MeanServerInconsistency()))
	t.AddRow("# msg_blowup_x", f1(float64(bcast.UpdateMsgsToServers)/float64(push.UpdateMsgsToServers)), "")
	return t, nil
}

// ExtTreeFailure quantifies the paper's multicast criticism (Section 1):
// node failures strand subtrees unless the structure is maintained.
func ExtTreeFailure(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "ext-tree-failure",
		Title:  "multicast push under server failures: repair on/off",
		Note:   "paper Section 1: node failures break structure connectivity and lead to unsuccessful update propagation",
		Header: []string{"repair", "failed", "live_at_final", "live", "final_frac"},
	}
	crashes := &fault.Spec{RandomCrashes: &fault.RandomCrashes{Count: scale.Scenario.Servers / 8}}
	repairs := []bool{false, true}
	results, err := scale.run(t, len(repairs), func(i int) cell {
		sc := scale.Scenario
		sc.Faults = crashes
		sc.TreeRepair = repairs[i]
		return cell{sys: system(consistency.MethodPush, consistency.InfraMulticast), sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for i, repair := range repairs {
		res := results[i]
		t.AddRow(onOff(repair), d0(res.FailedServers), d0(res.LiveServersAtFinalVersion),
			d0(res.LiveServers), f3(finalFrac(res)))
	}
	return t, nil
}

// ExtLease evaluates cooperative leases (related work [13]) against Push
// and TTL in the hot and idle regimes.
func ExtLease(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "ext-lease",
		Title:  "cooperative leases vs Push and TTL",
		Note:   "leases track Push while content is visited and decay to demand-driven renewals when idle",
		Header: []string{"system", "users_per_server", "update_msgs", "server_mean_s"},
	}
	// The scale's own users (hot), then none (idle).
	busy, idle := core.DefaultUsersPerServer, 0
	if n := scale.Scenario.UsersPerServer; n != nil {
		busy = *n
	}
	userCounts := []*int{&busy, &idle}
	systems := []core.System{
		{Name: "Lease", Method: consistency.MethodLease, Infra: consistency.InfraUnicast},
		core.SystemPush,
		core.SystemTTL,
	}
	results, err := scale.run(t, len(userCounts)*len(systems), func(i int) cell {
		sc := scale.Scenario
		sc.UsersPerServer = userCounts[i/len(systems)]
		return cell{sys: systems[i%len(systems)], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for ui, users := range userCounts {
		for si, sys := range systems {
			res := results[ui*len(systems)+si]
			t.AddRow(sys.Name, d0(*users), d0(res.UpdateMsgsToServers), f3(res.MeanServerInconsistency()))
		}
	}
	return t, nil
}

// ExtRegime evaluates the future-work regime controller (paper Sections 4.6
// and 6): servers probe their visit/update ratio and switch between Push,
// Invalidation, and TTL. Across a hot scenario (many readers, sparse
// updates) and a cold one (few readers, dense updates) the controller
// should approach the best single method of each.
func ExtRegime(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "ext-regime",
		Title:  "future-work regime controller vs fixed methods (hot and cold content)",
		Note:   "Section 4.6: no single method wins everywhere; a self-adapting strategy can track the optimum",
		Header: []string{"scenario", "method", "update_msgs", "server_mean_s"},
	}
	scenarios := []struct {
		name    string
		users   int
		userTTL plan.Duration
		meanGap plan.Duration
	}{
		{"hot", 4, secs(10), secs(60)},
		{"cold", 1, secs(180), secs(5)},
	}
	methods := []consistency.Method{
		consistency.MethodRegime, consistency.MethodPush,
		consistency.MethodInvalidation, consistency.MethodTTL,
	}
	results, err := scale.run(t, len(scenarios)*len(methods), func(i int) cell {
		regime := scenarios[i/len(methods)]
		sc := scale.Scenario
		sc.UsersPerServer = &regime.users
		sc.UserTTL = regime.userTTL
		sc.Game = &plan.GameSpec{
			Phases: []plan.PhaseSpec{{Name: "live", Duration: plan.Duration(30 * time.Minute), MeanGap: regime.meanGap}},
			SizeKB: 1,
		}
		return cell{sys: system(methods[i%len(methods)], consistency.InfraUnicast), sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for si, sc := range scenarios {
		for mi, m := range methods {
			res := results[si*len(methods)+mi]
			t.AddRow(sc.name, m.String(), d0(res.UpdateMsgsToServers), f3(res.MeanServerInconsistency()))
		}
	}
	return t, nil
}

// ExtCatalog evaluates the multi-content fleet planner: a catalog of live
// contents (the paper's motivating mix — live games, e-commerce, auctions,
// news) with Zipf popularity, each assigned the cheapest modeled method
// meeting its staleness budget, against one-size-fits-all fleets. Each
// content runs on half the scale's servers at a 60 s server TTL, with its
// own audience, payload and game, at the scale's seed plus its catalog
// index, so two contents of one profile draw distinct topologies and
// update streams.
func ExtCatalog(scale SimScale) (*Table, error) {
	cat, err := catalog.Generate(catalog.GenerateConfig{
		Contents: 24, Duration: 20 * time.Minute, Seed: scale.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("figures: ext-catalog: %w", err)
	}
	servers, ttl := scale.Scenario.Servers/2, 60*time.Second
	picks, err := catalog.PlanCatalog(cat, servers, ttl)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ext-catalog",
		Title:  "multi-content fleet: cost-model planner vs one-size-fits-all",
		Note:   "paper conclusion: consider varying visit frequencies and consistency requirements per customer",
		Header: []string{"fleet", "total_KB", "total_kmKB", "mean_staleness_s", "worst_budget_miss_s"},
	}
	// A content whose game draws no updates at its seed costs nothing and
	// cannot run: only the others are simulated and billed.
	var live []int
	for i, c := range cat.Contents {
		updates, err := workload.Schedule(c.Game, scale.Seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("figures: ext-catalog: %s: %w", c.ID, err)
		}
		if len(updates) > 0 {
			live = append(live, i)
		}
	}
	// The planner picks among these three methods, so the planned fleet's
	// runs are among the fixed fleets' ones.
	methods := []consistency.Method{consistency.MethodPush, consistency.MethodTTL, consistency.MethodInvalidation}
	results, err := scale.run(t, len(live)*len(methods), func(k int) cell {
		i := live[k/len(methods)]
		c := cat.Contents[i]
		sc := scale.Scenario
		sc.Servers = servers
		sc.UsersPerServer = &c.UsersPerServer
		sc.UserTTL = plan.Duration(c.UserTTL)
		sc.UpdateSizeKB = c.UpdateSizeKB
		sc.ServerTTL = plan.Duration(ttl)
		sc.Game = gameSpec(c.Game)
		return cell{sys: system(methods[k%len(methods)], consistency.InfraUnicast), sc: sc, seedOffset: int64(i)}
	})
	if err != nil {
		return nil, err
	}
	fleets := []struct {
		name   string
		method func(catalog.Content) consistency.Method
	}{
		{"planned", func(c catalog.Content) consistency.Method { return picks[c.ID] }},
		{"all-push", func(catalog.Content) consistency.Method { return consistency.MethodPush }},
		{"all-ttl", func(catalog.Content) consistency.Method { return consistency.MethodTTL }},
		{"all-invalidation", func(catalog.Content) consistency.Method { return consistency.MethodInvalidation }},
	}
	// Each fleet's bill sums its contents' runs in catalog order.
	for _, f := range fleets {
		var kb, kmKB, staleSum, worstMiss float64
		for k, i := range live {
			c := cat.Contents[i]
			res := results[k*len(methods)+slices.Index(methods, f.method(c))]
			tot := res.Accounting.Total()
			staleness := res.MeanServerInconsistency()
			kb += tot.KB
			kmKB += tot.KmKB
			staleSum += staleness
			worstMiss = max(worstMiss, staleness-c.StalenessBudget.Seconds())
		}
		meanStaleness := 0.0
		if len(live) > 0 {
			meanStaleness = staleSum / float64(len(live))
		}
		t.AddRow(f.name, f1(kb), e2(kmKB), f2(meanStaleness), f2(worstMiss))
	}
	return t, nil
}

// gameSpec is game as a scenario's game.
func gameSpec(game workload.GameConfig) *plan.GameSpec {
	g := &plan.GameSpec{SizeKB: game.SizeKB, MinGap: plan.Duration(game.MinGap)}
	for _, ph := range game.Phases {
		g.Phases = append(g.Phases, plan.PhaseSpec{
			Name: ph.Name, Duration: plan.Duration(ph.Duration), MeanGap: plan.Duration(ph.MeanGap),
		})
	}
	return g
}

// ExtDNS runs the DNS-routed user plane (Figure 1 mechanics) and reports
// the redirect rate and the user-observed inconsistency it induces per
// method — the mechanism behind the paper's Section 3.3 findings.
func ExtDNS(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "ext-dns",
		Title:  "DNS request routing: redirect rate and induced user inconsistency",
		Note:   "paper Section 3.3: expiring resolver entries + authoritative re-assignment redirect ~13-17% of visits onto possibly-stale replicas",
		Header: []string{"method", "redirect_rate", "user_inconsistent_frac"},
	}
	systems := []core.System{core.SystemPush, core.SystemInvalidation, core.SystemTTL, core.SystemHAT}
	results, err := scale.run(t, len(systems), func(i int) cell {
		sc := scale.Scenario
		sc.DNSResolverTTL = secs(20)
		sc.ServerTTL = secs(60)
		return cell{sys: systems[i], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for i, sys := range systems {
		res := results[i]
		rate := 0.0
		if res.DNSVisits > 0 {
			rate = float64(res.DNSRedirects) / float64(res.DNSVisits)
		}
		t.AddRow(sys.Name, f4(rate), f4(res.InconsistentObservationFrac()))
	}
	return t, nil
}
