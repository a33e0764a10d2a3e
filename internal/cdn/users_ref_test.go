package cdn

import (
	"testing"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/dns"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/sim"
)

// This file holds the reference user model: every end-user is its own actor,
// and every visit is its own engine event, exactly the paper's Section 4
// setup. The simulation runs the cohort model (cohort.go) for every
// population; the tests hold it, parked visits and all, to this model bit for
// bit on every outcome but Result.Events.

// runReference runs cfg with the reference model in place of the cohort
// model.
func runReference(t testing.TB, cfg Config) *Result {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.um = &explicitUsers{s: s}
	res, err := s.run()
	if err != nil {
		t.Fatalf("reference run (%v, %v): %v", cfg.Method, cfg.Infra, err)
	}
	return res
}

// user is one simulated end-user of the reference model.
type user struct {
	idx     int
	homeSrv int // node index of the home server
	// loc is the user's location, used to re-home after a failed visit.
	loc geo.Point
	// period is the user's visit period (Config.UserTTL unless a population
	// cohort overrides it).
	period time.Duration
	// resolver routes visits when DNS routing is on; lastServer tracks
	// redirections.
	resolver   *dns.Resolver
	lastServer int
	agg        userAgg
}

// explicitUsers is the reference model: every user owns a visit event.
type explicitUsers struct {
	s     *simulation
	users []*user
}

// schedule creates the end-users attached to each server and their periodic
// visit loops. Without a Population, users come from the topology and start
// at random offsets in [0, userStartMax] as in the paper's Section 4 setup
// (this path draws engine randomness exactly as it always has). With a
// Population, users are expanded one per cohort member with the cohort's
// deterministic offset and period, drawing no randomness — the same
// schedule the cohort model runs in aggregate. Under DNS routing each user
// owns a local resolver; otherwise it is pinned to its home server (or
// switches randomly per visit in the Figure 24 scenario).
func (m *explicitUsers) schedule() error {
	s := m.s
	if s.cfg.Population != nil {
		for si, cohorts := range s.cfg.Population.Servers {
			for _, spec := range cohorts {
				period := spec.Period()
				if period <= 0 {
					period = s.cfg.UserTTL
				}
				s.cell(si + 1).eng.Periodic(period)
				for k := 0; k < spec.Count; k++ {
					u := &user{
						idx:        len(m.users),
						homeSrv:    si + 1,
						lastServer: -1,
						loc:        s.locs[si+1],
						period:     period,
					}
					m.users = append(m.users, u)
					// The user lives in its home server's cell; failover
					// re-homes within the cell, so the loop never migrates.
					s.cell(u.homeSrv).eng.ScheduleAfterFunc(spec.Offset(), visitEvent, m, int64(u.idx))
				}
			}
		}
		return nil
	}
	for si := range s.topo.Servers {
		for ui := range s.topo.Users[si] {
			u := &user{
				idx:        len(m.users),
				homeSrv:    si + 1,
				lastServer: -1,
				loc:        s.topo.Users[si][ui].Loc,
				period:     s.cfg.UserTTL,
			}
			if s.cfg.ResolverTTL > 0 {
				resolver, err := dns.NewResolver(s.auth, s.topo.Users[si][ui].Loc, s.cfg.ResolverTTL)
				if err == nil {
					u.resolver = resolver
				}
			}
			m.users = append(m.users, u)
			offset := time.Duration(s.rng(u.homeSrv).Int63n(int64(userStartMax)))
			s.cell(u.homeSrv).eng.ScheduleAfterFunc(offset, visitEvent, m, int64(u.idx))
		}
	}
	return nil
}

// visitEvent is the closure-free user visit-loop handler; arg is the user's
// index. The visit loop is the highest-volume periodic loop in every
// TTL-family run, so its rescheduling must not allocate.
func visitEvent(_ *sim.Engine, recv any, arg int64) {
	m := recv.(*explicitUsers)
	m.visit(m.users[arg])
}

// visit performs one end-user request and reschedules the next.
func (m *explicitUsers) visit(u *user) {
	s := m.s
	target := m.routeVisit(u)
	nd := s.nodes[target]
	s.accountVisits(nd, 1)

	switch {
	case nd.down:
		// The server is dead: the request fails. Without Failover a
		// DNS-routed user waits for its cached entry to expire and a
		// pinned user keeps failing, matching the paper's observation
		// that cached IPs of failed servers keep attracting requests
		// (Section 3.4.5). With Failover the user reacts immediately.
		s.cell(target).failedVisits++
		u.agg.lastFailed = true
		if s.cfg.Failover {
			m.failoverUser(u)
		}
	case s.fedStaleDenied(target):
		// The server has served stale content under all-providers-down
		// degradation for longer than the federation staleness cap: the
		// visit fails rather than serve arbitrarily old content.
		s.cell(target).failedVisits++
		u.agg.lastFailed = true
		if s.cfg.Failover {
			m.failoverUser(u)
		}
	case nd.auto != nil && nd.auto.OnVisit():
		// First visit after an invalidation under the self-adaptive
		// method: the server polls, switches back to TTL, and the user
		// receives the fresh content when it lands.
		s.selfAdaptiveVisitPoll(target, func() {
			s.observeAgg(target, &u.agg, 1, s.nodes[target].version)
		})
	case s.cfg.Method == consistency.MethodInvalidation && !nd.valid:
		// Invalidation: the visit triggers the fetch; the user waits
		// for the refreshed content.
		s.triggerFetch(target, sim.Thunk, func() {
			s.observeAgg(target, &u.agg, 1, s.nodes[target].version)
		}, 0)
	case s.cfg.Method == consistency.MethodRegime:
		if nd.rc != nil {
			nd.rc.ObserveVisit(s.now(target))
		}
		if !nd.valid {
			s.triggerFetch(target, sim.Thunk, func() {
				s.observeAgg(target, &u.agg, 1, s.nodes[target].version)
			}, 0)
		} else {
			s.observeAgg(target, &u.agg, 1, nd.version)
		}
	case s.cfg.Method == consistency.MethodLease && !s.leaseValid(target):
		// Cooperative lease expired: the visit renews it, and the user
		// receives the refreshed content with the new lease.
		s.renewLease(target, func() {
			s.observeAgg(target, &u.agg, 1, s.nodes[target].version)
		})
	default:
		s.observeAgg(target, &u.agg, 1, nd.version)
	}

	s.cell(u.homeSrv).eng.ScheduleAfterFunc(u.period, visitEvent, m, int64(u.idx))
}

// routeVisit picks the serving server for this visit.
func (m *explicitUsers) routeVisit(u *user) int {
	s := m.s
	switch {
	case u.resolver != nil:
		// DNS routing is serial-only (gated in withDefaults), so the home
		// cell is the one cell.
		c := s.cell(u.homeSrv)
		target, _ := u.resolver.Lookup(c.eng.Now())
		c.dnsVisits++
		if u.lastServer >= 0 && target != u.lastServer {
			c.dnsRedirects++
		}
		u.lastServer = target
		return target
	case s.cfg.UserSwitchEveryVisit && len(s.nodes) > 2:
		return 1 + s.rng(u.homeSrv).Intn(len(s.nodes)-1)
	default:
		return u.homeSrv
	}
}

// failoverUser reacts to a failed visit: a DNS-routed user flushes its
// resolver cache so the next lookup re-resolves at the authoritative DNS
// (which skips dead servers); a pinned user re-homes to the nearest live
// server — the DNS re-resolution a real client performs after connection
// failures, collapsed into one step.
func (m *explicitUsers) failoverUser(u *user) {
	s := m.s
	if u.resolver != nil {
		u.resolver.Flush()
		s.cell(u.homeSrv).userFailovers++
		return
	}
	if s.cfg.UserSwitchEveryVisit {
		return // the next visit picks a random server anyway
	}
	if best := s.nearestLive(u.homeSrv, u.loc); best > 0 {
		s.cell(u.homeSrv).userFailovers++
		u.homeSrv = best
	}
}

func (m *explicitUsers) collect(res *Result) {
	for _, u := range m.users {
		res.UserAvgInconsistency = append(res.UserAvgInconsistency, u.agg.avg())
		res.UserObservations += u.agg.observations
		res.UserInconsistentObservations += u.agg.inconsistent
		if u.agg.lastFailed {
			res.StrandedUsers++
		}
	}
}

func (m *explicitUsers) totalUsers() int { return len(m.users) }

// Explicit users never park: every visit is its own event.
func (m *explicitUsers) settle(int, bool)              {}
func (m *explicitUsers) rearm(int)                     {}
func (m *explicitUsers) settleAll(time.Duration, bool) {}

func (m *explicitUsers) audit() *audit.Violation {
	for _, u := range m.users {
		if v := audit.CheckCount(audit.Label{Format: "user %d inconsistent observations", Index: u.idx},
			u.agg.inconsistent, u.agg.observations); v != nil {
			return v
		}
		if v := audit.CheckSeriesEntry(audit.Label{Format: "user %d catchupSum", Index: u.idx}, 0, u.agg.catchupSum); v != nil {
			return v
		}
	}
	return nil
}
