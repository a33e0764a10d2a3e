package catalog

import (
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
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
	if _, err := PlanCatalog(cat, 0, time.Minute); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := PlanCatalog(cat, 40, 0); err == nil {
		t.Error("zero TTL accepted")
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
