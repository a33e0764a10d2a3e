package catalog

import (
	"reflect"
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/topology"
)

func smallCatalog(t *testing.T, n int) *Catalog {
	t.Helper()
	cat, err := Generate(GenerateConfig{Contents: n, Duration: 15 * time.Minute, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestGenerate(t *testing.T) {
	cat := smallCatalog(t, 12)
	if len(cat.Contents) != 12 {
		t.Fatalf("contents = %d", len(cat.Contents))
	}
	profiles := map[Profile]int{}
	for i, c := range cat.Contents {
		if c.ID == "" || c.Game.Duration() == 0 {
			t.Fatalf("content %d malformed: %+v", i, c)
		}
		if c.UsersPerServer < 0 {
			t.Fatalf("content %d negative users", i)
		}
		if c.UpdateSizeKB <= 0 || c.StalenessBudget <= 0 {
			t.Fatalf("content %d missing size/budget", i)
		}
		profiles[c.Profile]++
	}
	for _, p := range []Profile{ProfileLiveGame, ProfileCommerce, ProfileAuction, ProfileNews} {
		if profiles[p] != 3 {
			t.Errorf("profile %v count = %d, want 3", p, profiles[p])
		}
	}
	// Popularity decays with rank.
	if cat.Contents[0].UsersPerServer < cat.Contents[len(cat.Contents)-1].UsersPerServer {
		t.Error("popularity not decaying")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenerateConfig{Contents: 0}); err == nil {
		t.Error("zero contents accepted")
	}
}

func TestProfileString(t *testing.T) {
	if ProfileLiveGame.String() != "live-game" || ProfileCommerce.String() != "commerce" ||
		ProfileAuction.String() != "auction" || ProfileNews.String() != "news" ||
		Profile(9).String() != "profile(9)" {
		t.Error("Profile.String wrong")
	}
}

func TestPlanCatalogRespectsBudgets(t *testing.T) {
	cat := smallCatalog(t, 12)
	plan, err := PlanCatalog(cat, 40, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 12 {
		t.Fatalf("plan size = %d", len(plan))
	}
	for _, c := range cat.Contents {
		m, ok := plan[c.ID]
		if !ok {
			t.Fatalf("content %s unplanned", c.ID)
		}
		// Auctions have a 5s budget: TTL (30s) can never be chosen.
		if c.Profile == ProfileAuction && m == consistency.MethodTTL {
			t.Errorf("auction %s planned TTL despite 5s budget", c.ID)
		}
	}
	if _, err := PlanCatalog(&Catalog{}, 40, time.Minute); err == nil {
		t.Error("empty catalog accepted")
	}
}

func TestPlanColdContentsAvoidPush(t *testing.T) {
	cat := smallCatalog(t, 40)
	plan, err := PlanCatalog(cat, 40, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var cold int
	for _, c := range cat.Contents {
		if c.UsersPerServer > 0 {
			continue
		}
		cold++
		if plan[c.ID] != consistency.MethodInvalidation {
			t.Errorf("cold %s planned %v, want Invalidation", c.ID, plan[c.ID])
		}
	}
	if cold == 0 {
		t.Fatal("catalog has no cold contents; popularity decay too shallow")
	}
}

func TestRunFleetPlannerVsFixed(t *testing.T) {
	cat := smallCatalog(t, 24)
	topoCfg := topology.Config{Servers: 25, Seed: 3}
	ttl := 60 * time.Second

	plan, err := PlanCatalog(cat, topoCfg.Servers, ttl)
	if err != nil {
		t.Fatal(err)
	}
	fleets, _, err := RunFleets(cat, []func(Content) consistency.Method{
		func(c Content) consistency.Method { return plan[c.ID] },
		func(Content) consistency.Method { return consistency.MethodPush },
		func(Content) consistency.Method { return consistency.MethodTTL },
	}, topoCfg, ttl, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	planned, allPush, allTTL := fleets[0], fleets[1], fleets[2]

	// The planner must be cheaper than pushing everything...
	if planned.TotalKB >= allPush.TotalKB {
		t.Errorf("planned fleet KB %.0f not below all-Push %.0f", planned.TotalKB, allPush.TotalKB)
	}
	// ...and far fresher where it matters than TTL-everything: all-TTL
	// blows the tight auction budgets, the planner does not (much).
	if planned.WorstBudgetMiss > 5 {
		t.Errorf("planned worst budget miss %.1fs, want small", planned.WorstBudgetMiss)
	}
	if allTTL.WorstBudgetMiss <= 5 {
		t.Errorf("all-TTL worst budget miss %.1fs, expected large", allTTL.WorstBudgetMiss)
	}
}

func TestRunFleetValidation(t *testing.T) {
	cat := smallCatalog(t, 4)
	topoCfg := topology.Config{Servers: 10, Seed: 1}
	ttlOnly := []func(Content) consistency.Method{func(Content) consistency.Method { return consistency.MethodTTL }}
	if _, _, err := RunFleets(nil, ttlOnly, topoCfg, time.Minute, 1, 1); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, _, err := RunFleets(cat, append(ttlOnly, nil), topoCfg, time.Minute, 1, 1); err == nil {
		t.Error("nil assignment accepted")
	}
	bad := topology.Config{Servers: 0}
	if _, _, err := RunFleets(cat, ttlOnly, bad, time.Minute, 1, 1); err == nil {
		t.Error("bad topology accepted")
	}
}

func TestRunFleetDeterministic(t *testing.T) {
	cat := smallCatalog(t, 4)
	topoCfg := topology.Config{Servers: 15, Seed: 2}
	assign := func(Content) consistency.Method { return consistency.MethodTTL }
	a, _, err := RunFleets(cat, []func(Content) consistency.Method{assign}, topoCfg, time.Minute, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunFleets(cat, []func(Content) consistency.Method{assign}, topoCfg, time.Minute, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].TotalKB != b[0].TotalKB || a[0].MeanStaleness != b[0].MeanStaleness {
		t.Error("fleet runs diverged")
	}
}

// TestRunFleetsSimulatesEachPairOnce checks that fleets sharing a (content,
// method) pair share its run: a repeated assignment adds no events and
// bills the same.
func TestRunFleetsSimulatesEachPairOnce(t *testing.T) {
	cat := smallCatalog(t, 4)
	topoCfg := topology.Config{Servers: 15, Seed: 2}
	assign := func(Content) consistency.Method { return consistency.MethodTTL }
	one, events, err := RunFleets(cat, []func(Content) consistency.Method{assign}, topoCfg, time.Minute, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, shared, err := RunFleets(cat, []func(Content) consistency.Method{assign, assign}, topoCfg, time.Minute, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || shared != events {
		t.Errorf("two identical fleets simulated %d events, one fleet %d", shared, events)
	}
	if !reflect.DeepEqual(two[0], one[0]) || !reflect.DeepEqual(two[1], one[0]) {
		t.Error("a shared run billed differently")
	}
}
