package cdn

import (
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/sim"
)

// cohort is one weighted group of interchangeable end-users: same home
// server, same visit phase, same period. One visit event per period stands
// in for count individual visits.
//
// The accounting is split into two strata. Under the self-adaptive method
// the first visitor after an invalidation is special: its observation is
// deferred until the server's poll returns fresh content, while every other
// same-instant visitor observes the (stale) cached version immediately. That
// is the only protocol path on which members of a cohort can diverge — and
// it always singles out the cohort's first member — so `leader` carries
// member 0 and `follow` carries members 1..count-1, who remain identical to
// each other forever. Every other method treats all members alike, leaving
// the two strata equal. This decomposition is what makes the cohort model's
// per-user accounting exactly equal to the explicit model's, not an
// approximation (the equivalence test suite holds it to that).
type cohort struct {
	idx    int
	home   int // node index of the serving server (re-homed on failover)
	count  int
	period time.Duration
	// loc is the cohort's location (its original home server's), used to
	// re-home after a failed visit exactly as explicit users do.
	loc    geo.Point
	leader userAgg
	follow userAgg
}

// cohortUsers is the aggregate user model: state and event volume scale with
// the number of cohorts, not users, which is what holds memory fixed while
// the population sweeps 10^4 -> 10^6.
type cohortUsers struct {
	s       *simulation
	cohorts []*cohort
	// initialUsers anchors the auditor's population-conservation invariant:
	// failover re-homes cohorts but never creates or destroys users.
	initialUsers int
}

// schedule builds the cohorts from the configured population and arms one
// visit event per cohort. No randomness is drawn: offsets and periods come
// from the population spec, so the engine RNG stream is identical to an
// explicit-model run over the same population.
func (m *cohortUsers) schedule() error {
	s := m.s
	for si, cohorts := range s.cfg.Population.Servers {
		for _, spec := range cohorts {
			period := spec.Period()
			if period <= 0 {
				period = s.cfg.UserTTL
			}
			c := &cohort{
				idx:    len(m.cohorts),
				home:   si + 1,
				count:  spec.Count,
				period: period,
				loc:    s.locs[si+1],
			}
			m.cohorts = append(m.cohorts, c)
			m.initialUsers += spec.Count
			// The cohort lives in its home server's cell; failover re-homes
			// within the cell, so the loop never migrates.
			s.cell(c.home).eng.Periodic(period)
			s.cell(c.home).eng.ScheduleAfterFunc(spec.Offset(), cohortVisitEvent, m, int64(c.idx))
		}
	}
	return nil
}

// cohortVisitEvent is the closure-free cohort visit-loop handler; arg is the
// cohort's index. The visit body is kept separate from the reschedule so the
// steady-state poll handling is testably allocation-free.
func cohortVisitEvent(_ *sim.Engine, recv any, arg int64) {
	m := recv.(*cohortUsers)
	c := m.cohorts[arg]
	m.visit(c)
	m.s.cell(c.home).eng.ScheduleAfterFunc(c.period, cohortVisitEvent, m, arg)
}

// visit performs one batched visit: count users hitting the cohort's server
// at the same instant. Batching is sound because the explicit model fires
// same-time member visits consecutively with nothing interleaved (equal
// timestamps run in schedule order, and every protocol continuation lands at
// a strictly later time), and each branch's side effects are idempotent or
// weighted: fetches and lease renewals dedup via their in-flight flags,
// OnVisit switches on the first caller only, zero-gap ObserveVisit repeats
// are no-ops, and failover's nearest-live choice is the same for co-located
// members.
func (m *cohortUsers) visit(c *cohort) {
	s := m.s
	nd := s.nodes[c.home]
	w := c.count
	s.accountVisits(nd, w)

	switch {
	case nd.down:
		// All members hit the dead server and fail; with Failover the
		// whole cohort re-homes at once (members share a location, so
		// the explicit model moves each of them identically).
		s.cell(c.home).failedVisits += w
		c.leader.lastFailed = true
		c.follow.lastFailed = true
		if s.cfg.Failover {
			m.failover(c)
		}
	case s.fedStaleDenied(c.home):
		// Serve-stale denial past the federation staleness cap fails every
		// member identically (the denial depends only on the server).
		s.cell(c.home).failedVisits += w
		c.leader.lastFailed = true
		c.follow.lastFailed = true
		if s.cfg.Failover {
			m.failover(c)
		}
	case nd.auto != nil && nd.auto.OnVisit():
		// Self-adaptive, first visit after an invalidation: the leader's
		// observation defers until the server's poll lands; the followers
		// observe the cached version now (OnVisit flips the mode on the
		// first call, so an explicit run gives members 1.. the default
		// branch at the same instant).
		target := c.home
		s.selfAdaptiveVisitPoll(target, func() {
			s.observeAgg(target, &c.leader, 1, s.nodes[target].version)
		})
		if w > 1 {
			s.observeAgg(target, &c.follow, w-1, nd.version)
		}
	case s.cfg.Method == consistency.MethodInvalidation && !nd.valid:
		// Every member's visit joins the same in-flight fetch; all
		// observations defer to the fetch completion.
		target := c.home
		s.triggerFetch(target, func() {
			m.observeAll(c, s.nodes[target].version)
		})
	case s.cfg.Method == consistency.MethodRegime:
		if nd.rc != nil {
			// One regime observation: the explicit model's members 1..
			// call ObserveVisit at the same timestamp, a zero-gap no-op.
			nd.rc.ObserveVisit(s.now(c.home))
		}
		if !nd.valid {
			target := c.home
			s.triggerFetch(target, func() {
				m.observeAll(c, s.nodes[target].version)
			})
		} else {
			m.observeAll(c, nd.version)
		}
	case s.cfg.Method == consistency.MethodLease && !s.leaseValid(c.home):
		// One renewal in flight (leaseRenewing dedups the rest); all
		// observations defer to the grant or timeout.
		target := c.home
		s.renewLease(target, func() {
			m.observeAll(c, s.nodes[target].version)
		})
	default:
		m.observeAll(c, nd.version)
	}
}

// observeAll records one observation of version v for every member: the
// leader first, then the followers, mirroring the explicit model's member
// order.
func (m *cohortUsers) observeAll(c *cohort, v int) {
	m.s.observeAgg(c.home, &c.leader, 1, v)
	if c.count > 1 {
		m.s.observeAgg(c.home, &c.follow, c.count-1, v)
	}
}

// failover re-homes the whole cohort to the nearest live server, the batched
// form of the explicit model's per-user re-homing (members share a location,
// so every member picks the same server).
func (m *cohortUsers) failover(c *cohort) {
	if best := m.s.nearestLive(c.home, c.loc); best > 0 {
		m.s.cell(c.home).userFailovers += c.count
		c.home = best
	}
}

// collect emits one per-user entry per stratum with its member count in
// UserWeights, so percentile summaries and weighted means see the true
// population without materializing count slice entries.
func (m *cohortUsers) collect(res *Result) {
	for _, c := range m.cohorts {
		res.UserAvgInconsistency = append(res.UserAvgInconsistency, c.leader.avg())
		res.UserWeights = append(res.UserWeights, 1)
		res.UserObservations += c.leader.observations
		res.UserInconsistentObservations += c.leader.inconsistent
		if c.leader.lastFailed {
			res.StrandedUsers++
		}
		if c.count > 1 {
			res.UserAvgInconsistency = append(res.UserAvgInconsistency, c.follow.avg())
			res.UserWeights = append(res.UserWeights, c.count-1)
			res.UserObservations += (c.count - 1) * c.follow.observations
			res.UserInconsistentObservations += (c.count - 1) * c.follow.inconsistent
			if c.follow.lastFailed {
				res.StrandedUsers += c.count - 1
			}
		}
	}
}

func (m *cohortUsers) totalUsers() int { return m.initialUsers }

// audit verifies the cohort bookkeeping: population conservation (churn and
// re-homing move cohorts between servers but never change Σ counts), home
// bounds, and per-stratum accounting sanity.
func (m *cohortUsers) audit() *audit.Violation {
	total := 0
	for _, c := range m.cohorts {
		if c.count <= 0 {
			return violationAt("cohort-conservation", -1,
				"cohort %d holds non-positive count %d", c.idx, c.count)
		}
		if c.home <= 0 || c.home >= len(m.s.nodes) {
			return violationAt("cohort-conservation", -1,
				"cohort %d homed at invalid node %d", c.idx, c.home)
		}
		total += c.count
		if v := audit.CheckCount(audit.Label{Format: "cohort %d leader inconsistent observations", Index: c.idx},
			c.leader.inconsistent, c.leader.observations); v != nil {
			return v
		}
		if v := audit.CheckCount(audit.Label{Format: "cohort %d follower inconsistent observations", Index: c.idx},
			c.follow.inconsistent, c.follow.observations); v != nil {
			return v
		}
		// The two strata read as one two-entry series: leader [0], follower [1].
		sum := audit.Label{Format: "cohort %d catchupSum", Index: c.idx}
		if v := audit.CheckSeriesEntry(sum, 0, c.leader.catchupSum); v != nil {
			return v
		}
		if v := audit.CheckSeriesEntry(sum, 1, c.follow.catchupSum); v != nil {
			return v
		}
	}
	if total != m.initialUsers {
		return violationAt("cohort-conservation", -1,
			"cohort population drifted: Σ counts = %d, initial = %d", total, m.initialUsers)
	}
	return nil
}
