package cdn

import (
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/netmodel"
)

// User-model selectors for Config.UserModel. Both run the one user model,
// cohorts (cohort.go); they choose how the population is cut into cohorts
// and how finely Result reports it.
const (
	// UserModelExplicit, the default, gives every end-user a cohort of its
	// own: the paper's Section 4 setup, one Result entry per user, and
	// per-visit routing (DNS or random switching) where the run asks for it.
	UserModelExplicit = "explicit"
	// UserModelCohort gives each Config.Population cohort spec one weighted
	// cohort, so memory scales with cohorts, not users, and Result carries
	// one entry per stratum with its member count in UserWeights. Requires
	// Config.Population.
	UserModelCohort = "cohort"
)

// userModel is the seam between the simulation and its end-user population.
// The simulation runs cohortUsers; the tests swap in an event-per-visit
// reference (users_ref_test.go) that drives the same server-side machinery
// and the same per-user accounting (userAgg), and hold the two equal.
type userModel interface {
	// schedule creates the model's users and arms their first visit events.
	schedule() error
	// collect appends the user-side metrics to the run's result.
	collect(res *Result)
	// audit verifies the model's accounting invariants; nil when they hold.
	audit() *audit.Violation
	// totalUsers reports the modeled population size.
	totalUsers() int
	// settle books the visits parked at node i that come before the
	// current event, ahead of a write to state a visit reads; fault tells a
	// fault event (crash or recovery) from any other. rearm then arms node
	// i's first next visit if the write made it act. settleAll books every
	// parked visit up to through (inclusive or not) for a reader of the
	// whole run's state: an audit sweep, a barrier, the horizon. A model
	// that parks nothing makes all three no-ops.
	settle(i int, fault bool)
	rearm(i int)
	settleAll(through time.Duration, inclusive bool)
}

// userAgg is the per-user accounting state, one per stratum of
// interchangeable users (one per user for a one-member cohort), and one per
// user in the tests' reference model. Keeping one implementation of the
// observation arithmetic is what makes the equivalence between the two exact
// rather than approximate.
type userAgg struct {
	maxSeen int
	// catch-up accounting mirrors the server metric at visit granularity.
	catchupSum float64
	catchupN   int
	// Figure 24 accounting.
	observations int
	inconsistent int
	// lastFailed marks that the most recent visit failed (dead server, or a
	// serve-stale denial past the federation staleness cap); any served
	// observation clears it. Users still flagged at run end are the
	// stranded_users metric.
	lastFailed bool
}

// avg is the user's mean catch-up delay in seconds.
func (a *userAgg) avg() float64 {
	if a.catchupN == 0 {
		return 0
	}
	return a.catchupSum / float64(a.catchupN)
}

// observeAgg records one observation of version v for each of weight
// identical users sharing the accounting state: catch-up delays for newly
// seen updates and the self-inconsistency counter (content older than
// previously seen, the Figure 24 metric), plus the stale-serve counter
// against the newest published snapshot. The per-user fields advance by one
// observation (every represented user saw the same thing); the global
// counters advance by weight. The observation happens at node i — the
// visited server — whose cell supplies the clock, the published watermark,
// and the stale counter.
func (s *simulation) observeAgg(i int, a *userAgg, weight, v int) {
	c := s.cell(i)
	if v < c.published {
		c.staleObservations += weight
	}
	s.observeRun(a, v, c.eng.Now(), 1)
}

// observeRun records n consecutive observations of version v into a, the
// first at time first: what n observeAgg calls would book into a, with no
// change to v in between. Only the first can see v as new, so only it adds
// catch-up terms; each is inconsistent when v is older than what a saw.
func (s *simulation) observeRun(a *userAgg, v int, first time.Duration, n int) {
	a.observations += n
	a.lastFailed = false
	if v < a.maxSeen {
		a.inconsistent += n
		return
	}
	if v > a.maxSeen {
		for id := a.maxSeen + 1; id <= v && id < len(s.publishAt); id++ {
			if at := s.publishAt[id]; at > 0 && first >= at {
				a.catchupSum += (first - at).Seconds()
				a.catchupN++
			}
		}
		a.maxSeen = v
	}
}

// accountVisits books weight end-user requests against the serving node's
// endpoint in the traffic ledger (opt-in via Config.AccountVisits). The
// independent visitsAccounted counter is the auditor's cross-check that no
// batched request is lost on the way into the ledger.
func (s *simulation) accountVisits(nd *node, weight int) {
	if !s.cfg.AccountVisits {
		return
	}
	c := s.cell(nd.idx)
	c.net.Account(nd.ep, lightSizeKB, netmodel.ClassContent, weight)
	c.visitsAccounted += weight
}
