package cdn

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// The metamorphic equivalence suite: for any shared population, the cohort
// model must reproduce the explicit model's results exactly — not within a
// statistical tolerance. The cohort decomposition (one leader stratum, one
// follower stratum per cohort) is an exact refactoring of the explicit
// per-user accounting, so every integer counter, every server mean, and every
// per-user mean must reconstruct bit-for-bit. The only tolerated float drift
// is in pooled means whose summation order differs (see assertEquivalent).

// equivPopulation draws a small heavy-tailed population and asserts the
// issue's small-N bound (<= 50 users per server) so the explicit runs stay
// cheap under -race.
func equivPopulation(t *testing.T, servers, total int, seed int64) *workload.Population {
	t.Helper()
	pop, err := workload.GeneratePopulation(workload.PopulationConfig{
		Servers:          servers,
		TotalUsers:       total,
		Alpha:            1.2,
		CohortsPerServer: 3,
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for si, cohorts := range pop.Servers {
		n := 0
		for _, c := range cohorts {
			n += c.Count
		}
		if n > 50 {
			t.Fatalf("population seed %d: server %d holds %d users, want <= 50", seed, si, n)
		}
	}
	return pop
}

// equivConfig is the shared run setup; only UserModel differs between the
// paired runs. Visit accounting and the runtime auditor are always on, so
// every equivalence case doubles as an audited-clean certificate for both
// models (including the cohort-conservation and visit-traffic invariants).
func equivConfig(t *testing.T, method consistency.Method, infra consistency.Infra,
	seed int64, pop *workload.Population, scenario string) Config {
	t.Helper()
	updates, err := workload.Schedule(testGame(), seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Method:        method,
		Infra:         infra,
		Topology:      topology.Config{Servers: len(pop.Servers), UsersPerServer: 1, Seed: seed},
		Clusters:      4,
		Updates:       updates,
		Seed:          seed,
		Population:    pop,
		AccountVisits: true,
		Audit:         &AuditOptions{},
	}
	if scenario != "" {
		spec, err := fault.Scenario(scenario)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &spec
		cfg.Failover = true
	}
	return cfg
}

// runPair executes the same configuration under the event-per-visit
// reference and the cohort model.
func runPair(t *testing.T, cfg Config) (explicit, cohort *Result) {
	t.Helper()
	ecfg := cfg
	ecfg.UserModel = UserModelExplicit
	ccfg := cfg
	ccfg.UserModel = UserModelCohort
	return runReference(t, ecfg), mustRun(t, ccfg)
}

// assertEquivalent holds the cohort run to the explicit run:
//
//   - every integer counter matches exactly;
//   - ServerAvgInconsistency matches exactly (the server side of the
//     simulation sees an identical event stream);
//   - each explicit user's mean reconstructs exactly from its cohort
//     stratum (member 0 from the leader entry, members 1..count-1 from the
//     follower entry);
//   - traffic ledgers match message-exactly per class, with KB within 1e-9
//     (batched accounting adds size*count where the explicit model adds
//     size count times);
//   - pooled MeanUserInconsistency within 1e-9 relative (weighted vs
//     unweighted summation order).
func assertEquivalent(t *testing.T, pop *workload.Population, exp, coh *Result) {
	t.Helper()
	ints := []struct {
		name   string
		ev, cv int
	}{
		{"UserObservations", exp.UserObservations, coh.UserObservations},
		{"UserInconsistentObservations", exp.UserInconsistentObservations, coh.UserInconsistentObservations},
		{"StaleObservations", exp.StaleObservations, coh.StaleObservations},
		{"FailedVisits", exp.FailedVisits, coh.FailedVisits},
		{"UserFailovers", exp.UserFailovers, coh.UserFailovers},
		{"UpdateMsgsToServers", exp.UpdateMsgsToServers, coh.UpdateMsgsToServers},
		{"UpdateMsgsFromProvider", exp.UpdateMsgsFromProvider, coh.UpdateMsgsFromProvider},
		{"LightMsgs", exp.LightMsgs, coh.LightMsgs},
		{"TreeDepth", exp.TreeDepth, coh.TreeDepth},
		{"Supernodes", exp.Supernodes, coh.Supernodes},
		{"Crashes", exp.Crashes, coh.Crashes},
		{"Recoveries", exp.Recoveries, coh.Recoveries},
		{"FailedServers", exp.FailedServers, coh.FailedServers},
		{"LiveServers", exp.LiveServers, coh.LiveServers},
		{"LiveServersAtFinalVersion", exp.LiveServersAtFinalVersion, coh.LiveServersAtFinalVersion},
		{"ServerReparents", exp.ServerReparents, coh.ServerReparents},
		{"TTLFallbacks", exp.TTLFallbacks, coh.TTLFallbacks},
	}
	for _, c := range ints {
		if c.ev != c.cv {
			t.Errorf("%s: explicit %d, cohort %d", c.name, c.ev, c.cv)
		}
	}

	if len(exp.ServerAvgInconsistency) != len(coh.ServerAvgInconsistency) {
		t.Fatalf("ServerAvgInconsistency length: explicit %d, cohort %d",
			len(exp.ServerAvgInconsistency), len(coh.ServerAvgInconsistency))
	}
	for i := range exp.ServerAvgInconsistency {
		if exp.ServerAvgInconsistency[i] != coh.ServerAvgInconsistency[i] {
			t.Errorf("ServerAvgInconsistency[%d]: explicit %v, cohort %v",
				i, exp.ServerAvgInconsistency[i], coh.ServerAvgInconsistency[i])
		}
	}

	// Per-user reconstruction. The explicit model materializes the
	// population in spec order, so its users line up with the cohort
	// strata: cohort entry pairs (leader, follow) expand to (member 0,
	// members 1..count-1).
	if exp.UserWeights != nil {
		t.Errorf("explicit run emitted UserWeights (len %d), want nil", len(exp.UserWeights))
	}
	if len(coh.UserAvgInconsistency) != len(coh.UserWeights) {
		t.Fatalf("cohort UserWeights length %d != entries %d",
			len(coh.UserWeights), len(coh.UserAvgInconsistency))
	}
	wantUsers := pop.TotalUsers()
	if len(exp.UserAvgInconsistency) != wantUsers {
		t.Fatalf("explicit users: %d, population: %d", len(exp.UserAvgInconsistency), wantUsers)
	}
	cohTotal := 0
	for _, w := range coh.UserWeights {
		cohTotal += w
	}
	if cohTotal != wantUsers {
		t.Fatalf("cohort weights sum to %d users, population holds %d", cohTotal, wantUsers)
	}
	eu, ce := 0, 0 // explicit user cursor, cohort entry cursor
	for _, cohorts := range pop.Servers {
		for _, spec := range cohorts {
			leader := coh.UserAvgInconsistency[ce]
			if w := coh.UserWeights[ce]; w != 1 {
				t.Fatalf("entry %d: leader weight %d, want 1", ce, w)
			}
			ce++
			if got := exp.UserAvgInconsistency[eu]; got != leader {
				t.Errorf("user %d (leader): explicit %v, cohort %v", eu, got, leader)
			}
			eu++
			if spec.Count > 1 {
				follow := coh.UserAvgInconsistency[ce]
				if w := coh.UserWeights[ce]; w != spec.Count-1 {
					t.Fatalf("entry %d: follower weight %d, want %d", ce, w, spec.Count-1)
				}
				ce++
				for k := 1; k < spec.Count; k++ {
					if got := exp.UserAvgInconsistency[eu]; got != follow {
						t.Errorf("user %d (follower %d): explicit %v, cohort stratum %v", eu, k, got, follow)
					}
					eu++
				}
			}
		}
	}
	if ce != len(coh.UserAvgInconsistency) {
		t.Errorf("consumed %d cohort entries of %d", ce, len(coh.UserAvgInconsistency))
	}

	// Traffic: same classes, message counts exact, KB within float noise.
	ecl, ccl := exp.Accounting.Classes(), coh.Accounting.Classes()
	if len(ecl) != len(ccl) {
		t.Fatalf("accounting classes: explicit %v, cohort %v", ecl, ccl)
	}
	for _, class := range ecl {
		et, ct := exp.Accounting.ByClass[class], coh.Accounting.ByClass[class]
		if et.Messages != ct.Messages {
			t.Errorf("traffic %v messages: explicit %d, cohort %d", class, et.Messages, ct.Messages)
		}
		if math.Abs(et.KB-ct.KB) > 1e-9*math.Max(1, math.Abs(et.KB)) {
			t.Errorf("traffic %v KB: explicit %v, cohort %v", class, et.KB, ct.KB)
		}
		if et.Km != ct.Km || et.KmKB != ct.KmKB {
			t.Errorf("traffic %v distance: explicit (%v,%v), cohort (%v,%v)",
				class, et.Km, et.KmKB, ct.Km, ct.KmKB)
		}
	}

	em, cm := exp.MeanUserInconsistency(), coh.MeanUserInconsistency()
	if math.Abs(em-cm) > 1e-9*math.Max(1, math.Abs(em)) {
		t.Errorf("MeanUserInconsistency: explicit %v, cohort %v", em, cm)
	}
}

// TestCohortEquivalenceFaults is the core matrix: the four headline systems
// under every built-in fault scenario (plus the fault-free baseline), with
// failover reactions and the runtime auditor on. This is the issue's
// acceptance bar: equivalence must hold under -race for every scenario.
func TestCohortEquivalenceFaults(t *testing.T) {
	systems := []struct {
		name   string
		method consistency.Method
		infra  consistency.Infra
	}{
		{"TTL", consistency.MethodTTL, consistency.InfraUnicast},
		{"Invalidation", consistency.MethodInvalidation, consistency.InfraUnicast},
		{"Push", consistency.MethodPush, consistency.InfraUnicast},
		{"HAT", consistency.MethodSelfAdaptive, consistency.InfraHybrid},
	}
	scenarios := append([]string{""}, fault.ScenarioNames()...)
	const seed = 3
	pop := equivPopulation(t, 12, 110, seed)
	for _, sys := range systems {
		for _, scenario := range scenarios {
			name := sys.name + "/none"
			if scenario != "" {
				name = sys.name + "/" + scenario
			}
			sys, scenario := sys, scenario
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := equivConfig(t, sys.method, sys.infra, seed, pop, scenario)
				exp, coh := runPair(t, cfg)
				assertEquivalent(t, pop, exp, coh)
			})
		}
	}
}

// TestCohortEquivalenceMethods covers the remaining update methods and
// infrastructures fault-free across two seeds (two distinct populations), so
// every protocol path through the user-model seam is pinned.
func TestCohortEquivalenceMethods(t *testing.T) {
	systems := []struct {
		name   string
		method consistency.Method
		infra  consistency.Infra
	}{
		{"Self", consistency.MethodSelfAdaptive, consistency.InfraUnicast},
		{"Hybrid", consistency.MethodTTL, consistency.InfraHybrid},
		{"AdaptiveTTL", consistency.MethodAdaptiveTTL, consistency.InfraUnicast},
		{"Lease", consistency.MethodLease, consistency.InfraUnicast},
		{"Regime", consistency.MethodRegime, consistency.InfraUnicast},
		{"Push-Multicast", consistency.MethodPush, consistency.InfraMulticast},
		{"Push-Broadcast", consistency.MethodPush, consistency.InfraBroadcast},
	}
	for _, seed := range []int64{1, 7} {
		pop := equivPopulation(t, 12, 110, seed)
		for _, sys := range systems {
			sys, seed, pop := sys, seed, pop
			t.Run(sys.name+"/seed"+string(rune('0'+seed)), func(t *testing.T) {
				t.Parallel()
				cfg := equivConfig(t, sys.method, sys.infra, seed, pop, "")
				exp, coh := runPair(t, cfg)
				assertEquivalent(t, pop, exp, coh)
			})
		}
	}
}

// explicitSystems is every valid method × infrastructure pairing.
var explicitSystems = []struct {
	name   string
	method consistency.Method
	infra  consistency.Infra
}{
	{"TTL", consistency.MethodTTL, consistency.InfraUnicast},
	{"TTL-Multicast", consistency.MethodTTL, consistency.InfraMulticast},
	{"Hybrid", consistency.MethodTTL, consistency.InfraHybrid},
	{"Push", consistency.MethodPush, consistency.InfraUnicast},
	{"Push-Multicast", consistency.MethodPush, consistency.InfraMulticast},
	{"Push-Hybrid", consistency.MethodPush, consistency.InfraHybrid},
	{"Push-Broadcast", consistency.MethodPush, consistency.InfraBroadcast},
	{"Invalidation", consistency.MethodInvalidation, consistency.InfraUnicast},
	{"Invalidation-Multicast", consistency.MethodInvalidation, consistency.InfraMulticast},
	{"Invalidation-Hybrid", consistency.MethodInvalidation, consistency.InfraHybrid},
	{"Self", consistency.MethodSelfAdaptive, consistency.InfraUnicast},
	{"Self-Multicast", consistency.MethodSelfAdaptive, consistency.InfraMulticast},
	{"HAT", consistency.MethodSelfAdaptive, consistency.InfraHybrid},
	{"AdaptiveTTL", consistency.MethodAdaptiveTTL, consistency.InfraUnicast},
	{"AdaptiveTTL-Multicast", consistency.MethodAdaptiveTTL, consistency.InfraMulticast},
	{"AdaptiveTTL-Hybrid", consistency.MethodAdaptiveTTL, consistency.InfraHybrid},
	{"Lease", consistency.MethodLease, consistency.InfraUnicast},
	{"Regime", consistency.MethodRegime, consistency.InfraUnicast},
}

// explicitRefConfig is a small audited run of sys under the named user
// setup and fault mode (scenario, "/failover" optional).
func explicitRefConfig(t *testing.T, method consistency.Method, infra consistency.Infra,
	seed int64, users, mode string) Config {
	t.Helper()
	game := workload.GameConfig{
		Phases: []workload.Phase{
			{Name: "p", Duration: 3 * time.Minute, MeanGap: 20 * time.Second},
			{Name: "b", Duration: 2 * time.Minute, MeanGap: 0},
			{Name: "p2", Duration: 3 * time.Minute, MeanGap: 20 * time.Second},
		},
		SizeKB: 1,
	}
	updates, err := workload.Schedule(game, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Method:        method,
		Infra:         infra,
		Topology:      topology.Config{Servers: 10, UsersPerServer: 3, Seed: seed},
		Clusters:      3,
		Updates:       updates,
		HorizonSlack:  2 * time.Minute,
		Seed:          seed,
		AccountVisits: true,
		Audit:         &AuditOptions{},
	}
	switch users {
	case "displaced":
		// Each server's users sit near the next server, so a failed-over
		// user's nearest live server depends on the user's own location.
		topo, err := topology.Generate(cfg.Topology)
		if err != nil {
			t.Fatal(err)
		}
		topo.Users = append(topo.Users[1:], topo.Users[0])
		cfg.Topo = topo
	case "dns":
		// ext-dns's setup.
		cfg.ResolverTTL = 20 * time.Second
	case "switch", "switch-population":
		// fig24's setup.
		cfg.UserSwitchEveryVisit = true
		cfg.UserTTL = 30 * time.Second
	}
	if strings.HasSuffix(users, "population") {
		cfg.Population = equivPopulation(t, 10, 40, seed)
	}
	scenario, failover := strings.CutSuffix(mode, "/failover")
	if scenario != "none" {
		spec, err := fault.Scenario(scenario)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &spec
		cfg.Failover = failover
	}
	return cfg
}

// assertSameOutcome holds got to want on every Result field but the
// implementation's own work: Events, and on a sharded run AuditChecks,
// whose sweeps run at window barriers that follow the event stream.
func assertSameOutcome(t *testing.T, want, got *Result, sharded bool) {
	t.Helper()
	w, g := *want, *got
	w.Events, g.Events = 0, 0
	if sharded {
		w.AuditChecks, g.AuditChecks = 0, 0
	}
	wv, gv := reflect.ValueOf(w), reflect.ValueOf(g)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("%s: reference %v, explicit %v", wv.Type().Field(i).Name, wv.Field(i), gv.Field(i))
		}
	}
}

// TestExplicitMatchesReference holds the explicit model, one-member cohorts
// whose passive visits park, to the event-per-visit reference bit for bit on
// every outcome: every method × infrastructure, fault-free and under crash
// and outage with failover off and on, at two seeds, over the topology's
// own users (also displaced from their servers) and over a Population,
// serial and sharded, and under DNS routing and per-visit switching,
// whose cohorts never park.
func TestExplicitMatchesReference(t *testing.T) {
	modes := []string{"none", "crash", "crash/failover", "outage", "outage/failover"}
	type setup struct {
		users   string
		sharded bool
	}
	setups := []setup{
		{"topology", false}, {"population", false}, {"displaced", false},
		{"topology", true}, {"population", true}, {"displaced", true},
		{"dns", false}, {"switch", false}, {"switch-population", false},
	}
	for _, sys := range explicitSystems {
		for _, mode := range modes {
			for _, seed := range []int64{1, 7} {
				for _, su := range setups {
					if su.sharded && sys.infra == consistency.InfraMulticast && strings.HasSuffix(mode, "/failover") {
						continue // sharded runs cannot mutate the multicast tree
					}
					sys, mode, seed, su := sys, mode, seed, su
					name := fmt.Sprintf("%s/%s/seed%d/%s", sys.name, mode, seed, su.users)
					if su.sharded {
						name += "/sharded"
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := explicitRefConfig(t, sys.method, sys.infra, seed, su.users, mode)
						cfg.Sharded = su.sharded
						assertSameOutcome(t, runReference(t, cfg), mustRun(t, cfg), su.sharded)
					})
				}
			}
		}
	}
}

// The cohort model switches servers per visit over one-member cohorts, and
// matches the reference there; a weighted cohort, whose members would each
// draw their own server, is rejected.
func TestCohortSwitchingOneMemberCohorts(t *testing.T) {
	pop := &workload.Population{}
	for si := 0; si < 10; si++ {
		pop.Servers = append(pop.Servers, []workload.CohortSpec{
			{Count: 1, OffsetNS: int64(si) * int64(time.Second)},
			{Count: 1, OffsetNS: int64(si+3) * int64(time.Second), PeriodNS: int64(20 * time.Second)},
		})
	}
	cfg := equivConfig(t, consistency.MethodTTL, consistency.InfraUnicast, 1, pop, "crash")
	cfg.UserSwitchEveryVisit = true
	exp, coh := runPair(t, cfg)
	assertEquivalent(t, pop, exp, coh)

	pop.Servers[4][1].Count = 2
	cfg.UserModel = UserModelCohort
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "only for one-member cohorts") {
		t.Fatalf("weighted cohort under per-visit switching: err = %v", err)
	}
}
