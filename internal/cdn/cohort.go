package cdn

import (
	"fmt"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/dns"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/sim"
)

// cohort is one weighted group of interchangeable end-users: same home
// server, same visit phase, same period. One batched visit per period stands
// in for count individual visits. The explicit model's cohorts have one
// member each, which is what lets a visit route on its own (see route).
//
// The accounting is split into two strata. Under the self-adaptive method
// the first visitor after an invalidation is special: its observation is
// deferred until the server's poll returns fresh content, while every other
// same-instant visitor observes the (stale) cached version immediately. That
// is the only protocol path on which members of a cohort can diverge — and
// it always singles out the cohort's first member — so `leader` carries
// member 0 and `follow` carries members 1..count-1, who remain identical to
// each other forever. Every other method treats all members alike, leaving
// the two strata equal. This decomposition is what makes a weighted
// cohort's per-user accounting exactly equal to that of its members run one
// by one, not an approximation (the equivalence test suites hold it to
// that, against an event-per-visit reference).
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
	// pub counts the publications at or before next, as of the last fold
	// (see staleVisits).
	pub int
	// armed marks a pending visit event, timer; after is the next armed
	// visit at the same instant in the cell's firing order (see arm).
	armed bool
	timer sim.Timer
	after *cohort
	// loc is the cohort's location (a topology user's own, else its
	// original home server's), used to re-home after a failed visit.
	loc geo.Point
	// resolver routes a one-member cohort's visits under DNS routing;
	// lastServer is the node its last visit went to (0: none yet).
	resolver   *dns.Resolver
	lastServer int
	leader     userAgg
	follow     userAgg
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
	// with every visit (Lease, Regime, a federated origin, per-visit
	// routing), or whose traffic ledger bulk sums would not be exact; their
	// cohorts stay armed.
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

// schedule builds the cohorts, parked at their first visit: every server
// starts passive. A run whose cohorts do not park arms one visit event per
// cohort instead, each in its home cell. The first visits take the places,
// among the events at their instants, an event-per-visit model gives them:
// one sequence number each, in cohort order, after everything scheduled
// before.
func (m *cohortUsers) schedule() error {
	s := m.s
	m.homed = make([][]*cohort, len(s.nodes))
	m.armedAt = make([]map[time.Duration]*cohort, len(s.cells))
	m.firstSeq = make([]uint64, len(s.cells))
	m.ties = make([]int, len(s.cells))
	m.parks = s.fed == nil && s.cfg.ResolverTTL == 0 && !s.cfg.UserSwitchEveryVisit &&
		s.cfg.Method != consistency.MethodLease && s.cfg.Method != consistency.MethodRegime &&
		(!s.cfg.AccountVisits || s.cfg.UpdateSizeKB == float64(int64(s.cfg.UpdateSizeKB)))
	m.schedulePublications()
	if err := m.build(); err != nil {
		return err
	}
	for i, c := range s.cells {
		m.armedAt[i] = make(map[time.Duration]*cohort)
		if m.parks {
			m.firstSeq[i] = c.eng.Reserve(len(m.cohorts))
		}
	}
	if !m.parks {
		for _, c := range m.cohorts {
			m.arm(c)
		}
	}
	return nil
}

// build cuts the population into cohorts. Without a Population, each
// topology user is a one-member cohort at its own location, visiting every
// UserTTL from a random offset in [0, userStartMax), drawn in server-then-
// user order from its server's cell: the paper's Section 4 setup. A
// Population's specs draw no randomness: each is one weighted cohort under
// the cohort model and Count one-member cohorts under the explicit one.
func (m *cohortUsers) build() error {
	s := m.s
	m.cohorts = make([]*cohort, 0, m.cohortCount())
	if s.cfg.Population == nil {
		for si, users := range s.topo.Users {
			for _, u := range users {
				offset := time.Duration(s.rng(si + 1).Int63n(int64(userStartMax)))
				c := m.add(si+1, 1, u.Loc, offset, s.cfg.UserTTL)
				if s.cfg.ResolverTTL > 0 {
					r, err := dns.NewResolver(s.auth, u.Loc, s.cfg.ResolverTTL)
					if err != nil {
						return fmt.Errorf("cdn: %w", err)
					}
					c.resolver = r
				}
			}
		}
		return nil
	}
	for si, specs := range s.cfg.Population.Servers {
		for _, spec := range specs {
			period := spec.Period()
			if period <= 0 {
				period = s.cfg.UserTTL
			}
			if s.cfg.UserModel == UserModelCohort {
				m.add(si+1, spec.Count, s.locs[si+1], spec.Offset(), period)
				continue
			}
			for k := 0; k < spec.Count; k++ {
				m.add(si+1, 1, s.locs[si+1], spec.Offset(), period)
			}
		}
	}
	return nil
}

// cohortCount is the number of cohorts build makes: one per topology user
// without a Population, else one per spec under the cohort model and one per
// user under the explicit one.
func (m *cohortUsers) cohortCount() int {
	s := m.s
	n := 0
	if s.cfg.Population == nil {
		for _, users := range s.topo.Users {
			n += len(users)
		}
		return n
	}
	for _, specs := range s.cfg.Population.Servers {
		if s.cfg.UserModel == UserModelCohort {
			n += len(specs)
			continue
		}
		for _, spec := range specs {
			n += spec.Count
		}
	}
	return n
}

// add appends a cohort of count users homed at node home. The cohort lives
// in its home server's cell; failover re-homes within the cell, so its
// visits never migrate.
func (m *cohortUsers) add(home, count int, loc geo.Point, offset, period time.Duration) *cohort {
	c := &cohort{
		idx:    len(m.cohorts),
		home:   home,
		count:  count,
		period: period,
		first:  offset,
		next:   offset,
		loc:    loc,
	}
	m.cohorts = append(m.cohorts, c)
	m.initialUsers += count
	m.homed[home] = append(m.homed[home], c)
	m.s.cell(home).eng.Periodic(period)
	return c
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

// visit performs one batched visit: count users hitting the server route
// picks at the same instant. Batching is sound because an event-per-visit
// model fires same-time member visits consecutively with nothing
// interleaved (equal timestamps run in schedule order, and every protocol
// continuation lands at a strictly later time), and each branch's side
// effects are idempotent or weighted: fetches and lease renewals dedup via
// their in-flight flags, OnVisit switches on the first caller only,
// zero-gap ObserveVisit repeats are no-ops, and failover's nearest-live
// choice is the same for co-located members.
func (m *cohortUsers) visit(c *cohort) {
	s := m.s
	target := m.route(c)
	nd := s.nodes[target]
	w := c.count
	s.accountVisits(nd, w)

	switch {
	case nd.down, s.fedStaleDenied(target):
		// The server is dead, or has served stale content under
		// all-providers-down degradation for longer than the federation
		// staleness cap: every member's request fails. Without Failover a
		// DNS-routed user waits for its cached entry to expire and a
		// pinned one keeps failing, matching the paper's observation that
		// cached IPs of failed servers keep attracting requests (Section
		// 3.4.5). With Failover the cohort reacts at once.
		s.cell(target).failedVisits += w
		c.leader.lastFailed = true
		c.follow.lastFailed = true
		if s.cfg.Failover {
			m.failover(c)
		}
	case nd.auto != nil && nd.auto.OnVisit():
		// Self-adaptive, first visit after an invalidation: the server
		// polls and switches back to TTL; the leader's observation defers
		// until the poll lands, and the followers observe the cached
		// version now (OnVisit flips the mode on the first call, so
		// members 1.. take the default branch at the same instant).
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
		s.triggerFetch(target, observeAllEvent, m, packPair(c.idx, target))
	case s.cfg.Method == consistency.MethodRegime:
		if nd.rc != nil {
			// One regime observation: members 1.. would call ObserveVisit
			// at the same timestamp, a zero-gap no-op.
			nd.rc.ObserveVisit(s.now(target))
		}
		if !nd.valid {
			s.triggerFetch(target, observeAllEvent, m, packPair(c.idx, target))
		} else {
			m.observeAll(c, target)
		}
	case s.cfg.Method == consistency.MethodLease && !s.leaseValid(target):
		// Cooperative lease expired: one renewal in flight (leaseRenewing
		// dedups the rest); all observations defer to the grant or timeout.
		s.renewLease(target, func() { m.observeAll(c, target) })
	default:
		m.observeAll(c, target)
	}
}

// route picks the server c's visit goes to: the resolver's answer under DNS
// routing, a uniformly random server under per-visit switching, else its
// home. Only one-member cohorts route (Validate rejects routing for
// weighted ones), and routing runs are serial, so the home cell is the one
// cell.
func (m *cohortUsers) route(c *cohort) int {
	s := m.s
	switch {
	case c.resolver != nil:
		cs := s.cell(c.home)
		target, _ := c.resolver.Lookup(cs.eng.Now())
		cs.dnsVisits++
		if c.lastServer > 0 && target != c.lastServer {
			cs.dnsRedirects++
		}
		c.lastServer = target
		return target
	case s.cfg.UserSwitchEveryVisit && len(s.nodes) > 2:
		return 1 + s.rng(c.home).Intn(len(s.nodes)-1)
	}
	return c.home
}

// observeAll records one observation of node i's current version for every
// member: the leader first, then the followers, in member order. It runs in
// deferred callbacks too, so it first books the cohort's visits parked since
// it was served.
func (m *cohortUsers) observeAll(c *cohort, i int) {
	m.settleCohort(c)
	v := m.s.nodes[i].version
	m.s.observeAgg(i, &c.leader, 1, v)
	if c.count > 1 {
		m.s.observeAgg(i, &c.follow, c.count-1, v)
	}
}

// observeAllEvent is a visit's observation deferred to the end of a fetch:
// observeAll of the cohort and node that arg packs.
func observeAllEvent(_ *sim.Engine, recv any, arg int64) {
	m := recv.(*cohortUsers)
	ci, i := unpackPair(arg)
	m.observeAll(m.cohorts[ci], i)
}

// failover reacts to a failed visit: a DNS-routed cohort flushes its
// resolver so the next lookup re-resolves at the authoritative DNS (which
// skips dead servers); under per-visit switching the next visit picks a
// random server anyway; otherwise the whole cohort re-homes to the nearest
// live server (members share a location, so every member picks the same
// one) — the DNS re-resolution a real client performs after connection
// failures, collapsed into one step.
func (m *cohortUsers) failover(c *cohort) {
	s := m.s
	switch {
	case c.resolver != nil:
		c.resolver.Flush()
		s.cell(c.home).userFailovers += c.count
	case s.cfg.UserSwitchEveryVisit:
	default:
		if best := s.nearestLive(c.home, c.loc); best > 0 {
			s.cell(c.home).userFailovers += c.count
			m.dropHomed(c)
			c.home = best
			m.homed[best] = append(m.homed[best], c)
		}
	}
}

// collect emits one per-user entry per stratum. The cohort model gives each
// its member count in UserWeights, so percentile summaries and weighted
// means see the true population without materializing count slice entries;
// the explicit model's entries are one user each, and its UserWeights stay
// nil.
func (m *cohortUsers) collect(res *Result) {
	entries := len(m.cohorts)
	for _, c := range m.cohorts {
		if c.count > 1 {
			entries++
		}
	}
	if entries == 0 {
		return
	}
	res.UserAvgInconsistency = make([]float64, 0, entries)
	weighted := m.s.cfg.UserModel == UserModelCohort
	if weighted {
		res.UserWeights = make([]int, 0, entries)
	}
	for _, c := range m.cohorts {
		res.UserAvgInconsistency = append(res.UserAvgInconsistency, c.leader.avg())
		if weighted {
			res.UserWeights = append(res.UserWeights, 1)
		}
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
