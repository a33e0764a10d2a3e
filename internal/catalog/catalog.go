// Package catalog models a CDN serving many live contents at once — the
// setting the paper's introduction motivates (live sports, e-commerce,
// online auctions) and its conclusion targets ("varying visit frequencies
// and consistency requirements from customers"). A catalog assigns each
// content an update profile and a Zipf-distributed audience; the planner
// picks each content's update method from the analytic cost model under a
// per-content staleness budget. The ext-catalog figure
// (internal/figures) replays every content through the simulation and
// bills each fleet.
package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/costmodel"
	"cdnconsistency/internal/workload"
)

// Profile is a content archetype from the paper's motivation.
type Profile int

// Content archetypes.
const (
	// ProfileLiveGame bursts updates during play and goes silent at
	// breaks (the paper's crawled workload).
	ProfileLiveGame Profile = iota + 1
	// ProfileCommerce is a storefront page: rare updates, heavy reads.
	ProfileCommerce
	// ProfileAuction accelerates updates toward the close.
	ProfileAuction
	// ProfileNews updates steadily at a moderate rate.
	ProfileNews
)

// String returns the profile name.
func (p Profile) String() string {
	switch p {
	case ProfileLiveGame:
		return "live-game"
	case ProfileCommerce:
		return "commerce"
	case ProfileAuction:
		return "auction"
	case ProfileNews:
		return "news"
	default:
		return fmt.Sprintf("profile(%d)", int(p))
	}
}

// Content is one catalog entry.
type Content struct {
	ID      string
	Profile Profile
	Game    workload.GameConfig
	// UsersPerServer reflects popularity (Zipf across the catalog).
	UsersPerServer int
	UserTTL        time.Duration
	// UpdateSizeKB is the content payload; StalenessBudget the customer's
	// consistency requirement.
	UpdateSizeKB    float64
	StalenessBudget time.Duration
}

// Catalog is a set of contents served by one CDN.
type Catalog struct {
	Contents []Content
}

// GenerateConfig sizes catalog generation.
type GenerateConfig struct {
	Contents int
	// Duration is each content's observation window; default 30 min.
	Duration time.Duration
	// MaxUsersPerServer caps the most popular content; default 6.
	MaxUsersPerServer int
	Seed              int64
}

// Generate builds a catalog with Zipf(1.1) popularity and rotating
// profiles.
func Generate(cfg GenerateConfig) (*Catalog, error) {
	if cfg.Contents <= 0 {
		return nil, fmt.Errorf("catalog: non-positive content count %d", cfg.Contents)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Minute
	}
	if cfg.MaxUsersPerServer <= 0 {
		cfg.MaxUsersPerServer = 6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := &Catalog{}
	for i := 0; i < cfg.Contents; i++ {
		profile := Profile(i%4 + 1)
		// Zipf-ish popularity: rank r gets ~max/r^1.2 users; the long
		// tail is cold (zero local users), as real catalogs are.
		users := int(float64(cfg.MaxUsersPerServer) / math.Pow(float64(i/4+1), 1.2))
		c := Content{
			ID:              fmt.Sprintf("content-%03d", i),
			Profile:         profile,
			Game:            profileGame(profile, cfg.Duration, rng),
			UsersPerServer:  users,
			UserTTL:         10 * time.Second,
			UpdateSizeKB:    profileSizeKB(profile),
			StalenessBudget: profileBudget(profile),
		}
		cat.Contents = append(cat.Contents, c)
	}
	return cat, nil
}

func profileGame(p Profile, d time.Duration, rng *rand.Rand) workload.GameConfig {
	jitter := func(base time.Duration) time.Duration {
		return base + time.Duration(rng.Int63n(int64(base/2)))
	}
	switch p {
	case ProfileLiveGame:
		half := d * 2 / 5
		return workload.GameConfig{
			Phases: []workload.Phase{
				{Name: "h1", Duration: half, MeanGap: jitter(20 * time.Second)},
				{Name: "break", Duration: d - 2*half, MeanGap: 0},
				{Name: "h2", Duration: half, MeanGap: jitter(20 * time.Second)},
			},
			SizeKB: profileSizeKB(p),
		}
	case ProfileCommerce:
		return workload.GameConfig{
			Phases: []workload.Phase{{Name: "storefront", Duration: d, MeanGap: jitter(8 * time.Minute)}},
			SizeKB: profileSizeKB(p),
		}
	case ProfileAuction:
		return workload.GameConfig{
			Phases: []workload.Phase{
				{Name: "early", Duration: d / 2, MeanGap: jitter(2 * time.Minute)},
				{Name: "mid", Duration: d / 4, MeanGap: jitter(30 * time.Second)},
				{Name: "close", Duration: d / 4, MeanGap: jitter(8 * time.Second)},
			},
			SizeKB: profileSizeKB(p),
		}
	default: // ProfileNews
		return workload.GameConfig{
			Phases: []workload.Phase{{Name: "feed", Duration: d, MeanGap: jitter(90 * time.Second)}},
			SizeKB: profileSizeKB(p),
		}
	}
}

func profileSizeKB(p Profile) float64 {
	switch p {
	case ProfileCommerce:
		return 60 // rendered product page
	case ProfileNews:
		return 20
	default:
		return 2 // scoreboard / bid ticker deltas
	}
}

func profileBudget(p Profile) time.Duration {
	switch p {
	case ProfileAuction:
		return 5 * time.Second // bids must be near-live
	case ProfileLiveGame:
		return 15 * time.Second
	case ProfileNews:
		return 2 * time.Minute
	default:
		return time.Minute
	}
}

// rates derives the cost-model workload for one content.
func rates(c Content, servers int, ttl time.Duration) (costmodel.Workload, error) {
	var expectedUpdates float64
	var total time.Duration
	for _, ph := range c.Game.Phases {
		total += ph.Duration
		if ph.MeanGap > 0 {
			expectedUpdates += ph.Duration.Seconds() / ph.MeanGap.Seconds()
		}
	}
	if total <= 0 {
		return costmodel.Workload{}, fmt.Errorf("catalog: content %s has no duration", c.ID)
	}
	w := costmodel.Workload{
		UpdateRate:         expectedUpdates / total.Seconds(),
		VisitRatePerServer: float64(c.UsersPerServer) / c.UserTTL.Seconds(),
		Servers:            servers,
		TTL:                ttl,
		TreeDepth:          1,
		RTTSeconds:         0.05,
	}
	// An unusable workload is an error here, so that the planner's Push
	// fallback only covers budgets no method meets.
	if err := w.Validate(); err != nil {
		return costmodel.Workload{}, fmt.Errorf("catalog: content %s: %w", c.ID, err)
	}
	return w, nil
}

// Plan maps each content to its chosen update method.
type Plan map[string]consistency.Method

// PlanCatalog picks, per content, the cheapest modeled method that meets
// the content's staleness budget. Contents whose budget no method meets
// fall back to Push (the strongest consistency available).
func PlanCatalog(cat *Catalog, servers int, ttl time.Duration) (Plan, error) {
	if cat == nil || len(cat.Contents) == 0 {
		return nil, fmt.Errorf("catalog: empty catalog")
	}
	candidates := []consistency.Method{
		consistency.MethodTTL, consistency.MethodPush, consistency.MethodInvalidation,
	}
	plan := make(Plan, len(cat.Contents))
	for _, c := range cat.Contents {
		w, err := rates(c, servers, ttl)
		if err != nil {
			return nil, err
		}
		// Cold content (no local readers) has vacuous observed staleness:
		// Invalidation costs one notification per update and never
		// transfers the payload — the paper's Section 1 case for
		// Invalidation.
		if w.VisitRatePerServer == 0 {
			plan[c.ID] = consistency.MethodInvalidation
			continue
		}
		est, err := costmodel.CheapestWithin(c.StalenessBudget, w, c.UpdateSizeKB, 1, candidates)
		if err != nil {
			// No modeled method meets the budget: fall back to the
			// strongest consistency available.
			plan[c.ID] = consistency.MethodPush
			continue
		}
		plan[c.ID] = est.Method
	}
	return plan, nil
}
