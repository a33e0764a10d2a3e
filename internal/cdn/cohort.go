package cdn

import (
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/sim"
)

// cohort is one weighted group of interchangeable end-users: same home
// server, same visit phase, same period. One batched visit per period stands
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
//
// A cohort is armed or parked (see cohort_fold.go). An armed cohort's next
// visit, at next, is an engine event; a parked cohort has no event, and its
// visits from next on are booked by the fold when its server's state next
// changes.
type cohort struct {
	idx    int
	home   int // node index of the serving server (re-homed on failover)
	count  int
	period time.Duration
	// first is the first visit's instant (the spec's offset); next is the
	// next visit not yet booked.
	first, next time.Duration
	// armed marks a pending visit event, timer; after is the next armed
	// visit at the same instant in the cell's firing order (see arm).
	armed bool
	timer sim.Timer
	after *cohort
	// loc is the cohort's location (its original home server's), used to
	// re-home after a failed visit exactly as explicit users do.
	loc    geo.Point
	leader userAgg
	follow userAgg
}

// cohortUsers is the aggregate user model: state scales with the number of
// cohorts, not users, which is what holds memory fixed while the population
// sweeps 10^4 -> 10^6, and engine events scale with the visits that can act.
type cohortUsers struct {
	s       *simulation
	cohorts []*cohort
	// initialUsers anchors the auditor's population-conservation invariant:
	// failover re-homes cohorts but never creates or destroys users.
	initialUsers int

	// homed lists, per node, the cohorts homed there, armed or parked;
	// armedAt heads, per cell, the list of armed visits at each instant in
	// firing order (see arm). firstSeq is, per cell, the first of the
	// sequence numbers reserved for the cohorts' first visits: cohort idx's
	// is firstSeq+idx, where the event-per-visit model schedules it.
	homed    [][]*cohort
	armedAt  []map[time.Duration]*cohort
	firstSeq []uint64
	// parks is false for runs whose visit outcomes move with the clock or
	// with every visit (Lease, Regime, a federated origin), or whose
	// traffic ledger bulk sums would not be exact; their cohorts stay armed.
	parks bool
	// pubAt and pubID are the publication schedule in firing order: the
	// cell's published watermark is pubID[k] from pubAt[k] until the next
	// publication.
	pubAt []time.Duration
	pubID []int
	// ties counts, per cell, the exact ties the fold resolved: parked
	// visits at the instant of a publication or of a state change, and tied
	// first visitors after a self-adaptive invalidation. Tests read it to
	// prove their schedules exercise the tie rules.
	ties []int
}

// schedule builds the cohorts from the configured population, parked at
// their first visit: every server starts passive. A run whose cohorts do not
// park arms one visit event per cohort instead, each in its home cell. No
// randomness is drawn: offsets and periods come from the population spec,
// so the engine RNG stream is identical to an explicit-model run over the
// same population.
func (m *cohortUsers) schedule() error {
	s := m.s
	m.homed = make([][]*cohort, len(s.nodes))
	m.armedAt = make([]map[time.Duration]*cohort, len(s.cells))
	m.firstSeq = make([]uint64, len(s.cells))
	m.ties = make([]int, len(s.cells))
	m.parks = s.fed == nil &&
		s.cfg.Method != consistency.MethodLease && s.cfg.Method != consistency.MethodRegime &&
		(!s.cfg.AccountVisits || s.cfg.UpdateSizeKB == float64(int64(s.cfg.UpdateSizeKB)))
	for i, c := range s.cells {
		m.armedAt[i] = make(map[time.Duration]*cohort)
		if m.parks {
			m.firstSeq[i] = c.eng.Reserve(s.cfg.Population.NumCohorts())
		}
	}
	m.schedulePublications()
	for si, cohorts := range s.cfg.Population.Servers {
		m.homed[si+1] = make([]*cohort, 0, len(cohorts))
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
				first:  spec.Offset(),
				next:   spec.Offset(),
				loc:    s.locs[si+1],
			}
			m.cohorts = append(m.cohorts, c)
			m.initialUsers += spec.Count
			m.homed[c.home] = append(m.homed[c.home], c)
			// The cohort lives in its home server's cell; failover re-homes
			// within the cell, so the loop never migrates.
			s.cell(c.home).eng.Periodic(period)
			if !m.parks {
				m.arm(c)
			}
		}
	}
	return nil
}

// cohortVisitEvent is the closure-free handler of an armed cohort's visit;
// arg is the cohort's index. The visit body is kept separate from the
// re-arm so the steady-state visit is testably allocation-free.
func cohortVisitEvent(_ *sim.Engine, recv any, arg int64) {
	m := recv.(*cohortUsers)
	c := m.cohorts[arg]
	m.unindex(c)
	home := c.home
	m.visit(c)
	c.next += c.period
	if !m.parks {
		m.arm(c)
		return
	}
	// c parks; the rearms arm the next visitor of each server c left or
	// joined whose next visit acts, c itself included.
	c.armed = false
	m.rearm(home)
	if c.home != home {
		m.rearm(c.home)
	}
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
			m.settleCohort(c)
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
// order. It runs in deferred callbacks too, so it first books the cohort's
// visits parked since it was served.
func (m *cohortUsers) observeAll(c *cohort, v int) {
	m.settleCohort(c)
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
		m.dropHomed(c)
		c.home = best
		m.homed[best] = append(m.homed[best], c)
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
// bounds, per-stratum accounting sanity, and that no cohort is parked where
// its next visit would act.
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
	return m.auditParked()
}
