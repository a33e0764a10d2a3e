package cdn

import (
	"fmt"
	"sort"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
)

// This file holds the cohort model's parking. Almost every cohort visit
// takes visit's default branch: it reads the server's version and the
// published watermark and changes nothing a later event reads. Such visits
// need no engine event. A cohort is parked from the start and after each
// visit: it keeps its next visit instant and no event. Every write to state a visit reads —
// setVersion, an invalidation arrival, a crash or recovery — first settles
// the server: in one pass over its cohorts, it books the parked visits that
// come before the write with the arithmetic of observeAgg (the fold), and
// their traffic with one accountVisits call for the server. While a server
// is not passive (its next visit would act), rearm keeps its first next
// visitor armed, after the write and after every visit. A deferred callback
// settles its cohort before observing into it, and audit sweeps, barriers
// and the horizon settle every cohort. A self-adaptive poll result reaches
// the fold through setVersion; its switch to invalidation-idle changes no
// visit (only the invalidation notice that follows makes one act).
//
// The tie rule. The event-per-visit model fires same-instant events in
// scheduling order, and a visit is scheduled by the same cohort's previous
// visit one period earlier. So, for a parked visit at the very instant t of
// a write:
//
//   - a crash or recovery (settle with fault set) comes first, unless the
//     visit is the cohort's first: fault events are scheduled at setup,
//     after every first visit and before every later one. A later visit sees
//     the write: settle books visits strictly before t, and rearm arms the
//     tied visit after the fault event.
//   - any other write is a message arrival, scheduled less than a visit
//     period before it fires; the visit, scheduled a full period before t
//     (or at setup), comes first and is booked with the state before the
//     write.
//   - a publication at t counts: publications are scheduled at setup, before
//     every visit (staleVisits).
//   - a deferred callback at t observes the same state the tied visit does,
//     so either order books the same result.
//
// Among visits at one instant, visitsBefore gives the event-per-visit order:
// it picks a server's first visitor (rearm), and arm keeps the armed visits
// of a cell in it, so visits that send messages book their traffic in the
// event-per-visit order.
//
// What the rules leave open: an armed visit after a cohort's first is
// scheduled when its server's previous visit, or the write that made the
// server act, runs, not one period before its instant as in the
// event-per-visit model (a first visit takes the place reserved for it at
// setup). So an event at the visit's instant that was scheduled within
// that period but before the arming (a timeout shorter than a period, or
// one equal to it armed later at the same instant) fires before the visit
// here and after it there. The event-per-visit model stays
// the reference: the tie suites in cohort_fold_test.go, with a server TTL
// equal to the visit period, find no such order that changes a result.

// passive reports whether a visit to node i now takes visit's default
// branch. Runs whose cohorts park have no federation, Lease or Regime, so
// only a crash, an invalidated self-adaptive server or an invalid
// Invalidation cache make a visit act.
func (m *cohortUsers) passive(i int) bool {
	nd := m.s.nodes[i]
	switch {
	case nd.down:
		return false
	case nd.auto != nil && nd.auto.Mode() == consistency.ModeInvalidated:
		return false
	case m.s.cfg.Method == consistency.MethodInvalidation && !nd.valid:
		return false
	}
	return true
}

// settle books node i's parked visits that come before the current event,
// under the tie rule above, in one pass over the server's cohorts: it asks
// passive once, since nothing a fold writes changes it, and books the
// server's folded visits into the traffic ledger with one call, which sums
// exactly because every visit's size is integral. A server that is not
// passive books nothing, but its tied visits still count in ties.
func (m *cohortUsers) settle(i int, fault bool) {
	if !m.parks {
		return
	}
	now := m.s.now(i)
	passive := m.passive(i)
	visits := 0
	for _, c := range m.homed[i] {
		if c.armed || c.next > now {
			continue
		}
		if (now-c.next)%c.period == 0 {
			m.ties[m.s.cellOf[i]]++
		}
		if passive {
			visits += m.fold(c, now, !fault || c.first == now && c.next == now)
		}
	}
	if visits > 0 {
		m.s.accountVisits(m.s.nodes[i], visits)
	}
}

// settleCohort books c's parked visits up to now, ahead of a deferred
// observation into c.
func (m *cohortUsers) settleCohort(c *cohort) {
	if !c.armed {
		m.book(c, m.s.now(c.home), true)
	}
}

// settleAll books every parked visit up to through.
func (m *cohortUsers) settleAll(through time.Duration, inclusive bool) {
	for _, c := range m.cohorts {
		if !c.armed {
			m.book(c, through, inclusive)
		}
	}
}

// book folds c's parked visits up to through (inclusive or not) and books
// their traffic. It books nothing while the server is not passive: rearm
// keeps its first visitor armed, so c's next visit is not before now, and a
// visit tied at now comes after the armed one and may act.
func (m *cohortUsers) book(c *cohort, through time.Duration, inclusive bool) {
	if c.next > through || !m.passive(c.home) {
		return
	}
	if visits := m.fold(c, through, inclusive); visits > 0 {
		m.s.accountVisits(m.s.nodes[c.home], visits)
	}
}

// fold books c's parked visits from c.next up to through (inclusive or not)
// as the event-per-visit model would have, each against the home server's
// current version: the stale count against the publication schedule, and
// both strata's observations. It returns the member visits folded, whose
// traffic the caller books in bulk (every size is integral, so the ledger
// sum is exact). The caller has checked that the server is passive and that
// c.next is not after through.
func (m *cohortUsers) fold(c *cohort, through time.Duration, inclusive bool) int {
	n := int((through-c.next)/c.period) + 1
	if !inclusive && c.next+time.Duration(n-1)*c.period == through {
		n--
	}
	if n == 0 {
		return 0
	}
	s := m.s
	v := s.nodes[c.home].version
	s.cell(c.home).staleObservations += c.count * m.staleVisits(c, n, v)
	s.observeRun(&c.leader, v, c.next, n)
	if c.count > 1 {
		s.observeRun(&c.follow, v, c.next, n)
	}
	c.next += time.Duration(n) * c.period
	return c.count * n
}

// staleVisits counts c's n visits from c.next on that see a published
// watermark above v. The watermark steps at each publication, and a visit
// at a publication's instant sees it (a tie). c.pub counts the publications
// at or before c.next; it only moves forward, as c.next does, so the scan
// that brings it up to date costs each cohort one step per publication over
// the whole run, and counts a tie at c.next in the one fold that starts
// there.
func (m *cohortUsers) staleVisits(c *cohort, n, v int) int {
	t0, p := c.next, c.period
	k := c.pub
	for ; k < len(m.pubAt) && m.pubAt[k] <= t0; k++ {
		if m.pubAt[k] == t0 {
			m.ties[m.s.cellOf[c.home]]++
		}
	}
	c.pub = k
	last := t0 + time.Duration(n-1)*p
	stale := 0
	for j := 0; j < n; k++ {
		// Visits j..end-1 see publication k-1's watermark: all the rest,
		// unless publication k comes by the last visit, which sees it.
		end := n
		if k < len(m.pubAt) && m.pubAt[k] <= last {
			d := m.pubAt[k] - t0
			q, r := d/p, d%p
			end = int(q)
			if r == 0 {
				m.ties[m.s.cellOf[c.home]]++
			} else {
				end++
			}
		}
		if end > j {
			if k > 0 && m.pubID[k-1] > v {
				stale += end - j
			}
			j = end
		}
	}
	return stale
}

// schedulePublications records the publication schedule in the order its
// events fire: by time, and in listing order at one instant.
func (m *cohortUsers) schedulePublications() {
	s := m.s
	order := make([]int, len(s.cfg.Updates))
	for k := range order {
		order[k] = k
	}
	at := func(k int) time.Duration { return s.publishAt[s.cfg.Updates[k].Snapshot] }
	sort.SliceStable(order, func(a, b int) bool { return at(order[a]) < at(order[b]) })
	for _, k := range order {
		m.pubAt = append(m.pubAt, at(k))
		m.pubID = append(m.pubID, s.cfg.Updates[k].Snapshot)
	}
}

// rearm keeps node i's first next visitor armed while the server is not
// passive: that visit acts (it fails at a crashed server, triggers or joins
// the fetch of an invalid Invalidation cache, polls for an invalidated
// self-adaptive server). Every armed visit rearms its server again, so the
// visitors of a non-passive server are armed one at a time, in visit order,
// until the server turns passive.
func (m *cohortUsers) rearm(i int) {
	if !m.parks || m.passive(i) {
		return
	}
	if first := m.firstVisitor(i); first != nil && !first.armed {
		m.arm(first)
	}
}

// firstVisitor is the cohort whose visit comes first at node i, or nil.
func (m *cohortUsers) firstVisitor(i int) *cohort {
	var first *cohort
	for _, c := range m.homed[i] {
		if first == nil || c.next < first.next || c.next == first.next && visitsBefore(c, first) {
			first = c
		}
	}
	return first
}

// visitsBefore reports whether a's visit fires before b's at their common
// instant in the event-per-visit order, where a visit is scheduled at setup
// (the first, in cohort order) or by the cohort's previous visit. A
// setup-scheduled visit comes first; else the one scheduled earlier (the
// longer period); at equal periods the earlier schedules recur one period
// back, so the cohort with fewer visits so far (the later first visit) comes
// first, then cohort order.
func visitsBefore(a, b *cohort) bool {
	aSetup, bSetup := a.next == a.first, b.next == b.first
	switch {
	case aSetup != bSetup:
		return aSetup
	case aSetup:
	case a.period != b.period:
		return a.period > b.period
	case a.first != b.first:
		return a.first > b.first
	}
	return a.idx < b.idx
}

// arm schedules c's next visit as an event in its home cell. Events at one
// instant fire in scheduling order, so a visit armed late would fire after
// every visit armed before it at that instant, while the event-per-visit
// model orders them by visitsBefore (and a visit that sends a message books
// its traffic in that order). Each cell therefore lists its armed visits per
// instant in visitsBefore order, and arm re-arms, behind c, every visit that
// visitsBefore puts after it. A first visit needs no place in the list: it
// takes the sequence number reserved for it at setup, ahead of every later
// arm, as the event-per-visit model schedules it. A run whose cohorts never
// park arms each visit from the previous one, as that model does.
func (m *cohortUsers) arm(c *cohort) {
	c.armed = true
	eng := m.s.cell(c.home).eng
	// c.next is never before now: settle booked every earlier visit.
	switch {
	case !m.parks:
		c.timer, _ = eng.ScheduleAtFunc(c.next, cohortVisitEvent, m, int64(c.idx))
		return
	case c.next == c.first:
		seq := m.firstSeq[m.s.cellOf[c.home]] + uint64(c.idx)
		c.timer, _ = eng.ScheduleAtFuncSeq(c.next, seq, cohortVisitEvent, m, int64(c.idx))
		return
	}
	at := m.armedAt[m.s.cellOf[c.home]]
	var prev *cohort
	later := at[c.next]
	for later != nil && visitsBefore(later, c) {
		prev, later = later, later.after
	}
	c.after = later
	if prev == nil {
		at[c.next] = c
	} else {
		prev.after = c
	}
	c.timer, _ = eng.ScheduleAtFunc(c.next, cohortVisitEvent, m, int64(c.idx))
	for d := later; d != nil; d = d.after {
		eng.Cancel(d.timer)
		d.timer, _ = eng.ScheduleAtFunc(d.next, cohortVisitEvent, m, int64(d.idx))
	}
}

// unindex takes a firing c off its cell's list of armed visits. The list's
// visits fire in its order, so c heads it.
func (m *cohortUsers) unindex(c *cohort) {
	if !m.parks || c.next == c.first {
		return
	}
	at := m.armedAt[m.s.cellOf[c.home]]
	if at[c.next] != c {
		panic(fmt.Sprintf("cdn: cohort %d fired out of its instant's arming order", c.idx))
	}
	if c.after == nil {
		delete(at, c.next)
	} else {
		at[c.next] = c.after
	}
	c.after = nil
}

// dropHomed takes c off its home's homed list.
func (m *cohortUsers) dropHomed(c *cohort) {
	list := m.homed[c.home]
	for k, d := range list {
		if d == c {
			m.homed[c.home] = append(list[:k], list[k+1:]...)
			return
		}
	}
}

// auditParked is the cohort-parked-passive property: no cohort is parked
// where its next visit would act, that is, every server that is not passive
// has its first next visitor armed.
func (m *cohortUsers) auditParked() *audit.Violation {
	for i, list := range m.homed {
		if len(list) == 0 || m.passive(i) {
			continue
		}
		if first := m.firstVisitor(i); !first.armed {
			return violationAt("cohort-parked-passive", i,
				"cohort %d is parked on node %d, whose next visit, at %v, acts", first.idx, i, first.next)
		}
	}
	return nil
}
