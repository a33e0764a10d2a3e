package cdn

import (
	"fmt"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/netmodel"
)

// AuditOptions configures the runtime invariant auditor. The auditor rides
// the simulation's own execution: at every Cadence of virtual time it sweeps
// the full conservation-property set (tree structure, version bounds,
// catch-up accounting, counter monotonicity, traffic-ledger conservation,
// delivery conservation), and it re-checks the overlay tree immediately after
// every failover mutation. The first violated property stops the run and is
// returned as the run's error, so a corrupted simulation can never produce a
// figure.
//
// In a serial run, audit sweeps are engine events, so an audited run
// processes more events than an unaudited one — but they draw no randomness
// and mutate nothing, so every reported metric is identical with the auditor
// on or off. In a sharded run the sweeps execute at window barriers instead
// (every cell quiescent): per-event observations are recorded cell-locally
// while the cell runs and folded in
// deterministic cell order at the next barrier, so the audited run processes
// exactly the same events — and produces exactly the same Result — as the
// unaudited one.
type AuditOptions struct {
	// Cadence is the virtual-time period between full sweeps; default 30 s.
	// A sharded run sweeps at the first window barrier at or after each
	// cadence boundary, and windows follow the event stream: one window
	// may span several boundaries, so a sparse run skips cadence instants.
	// There Cadence is only a lower bound on the gap between sweeps (less
	// the lateness of the barrier that ran the previous one), not their
	// period.
	Cadence time.Duration
	// SelfTest, when non-empty, injects one named, deliberate corruption
	// halfway through the run so operators can prove the auditor tripwire
	// end-to-end (a run configured this way must fail). Valid names:
	// "version-bounds" (a server's version is forced beyond every published
	// snapshot),
	// "counter-negative" (a cumulative counter is forced negative), and
	// "delivery-conservation" (a delivery attempt is booked with no matching
	// send or drop).
	SelfTest string
}

const defaultAuditCadence = 30 * time.Second

// AuditSelfTestNames lists the valid AuditOptions.SelfTest values, in the
// order they are documented.
func AuditSelfTestNames() []string {
	return []string{"version-bounds", "counter-negative", "delivery-conservation"}
}

// ValidAuditSelfTest reports whether name is empty or a known self-test.
func ValidAuditSelfTest(name string) bool {
	if name == "" {
		return true
	}
	for _, n := range AuditSelfTestNames() {
		if n == name {
			return true
		}
	}
	return false
}

// auditor holds the sweep state: the previous observation of every monotone
// quantity, the precomputed catch-up delay bound, and the first violation.
type auditor struct {
	s       *simulation
	cadence time.Duration
	checks  int
	// violation is the first failed property; once set, the engine is
	// stopped and later sweeps are no-ops.
	violation *audit.Violation

	// delayBound caps each recorded server catch-up delay. Zero means only
	// non-negativity is enforced: under faults or visit-driven pull
	// methods there is no sound a-priori bound short of the horizon.
	delayBound time.Duration

	// nextSweep is the next cadence boundary, consumed by the sharded
	// barrier driver (serial runs schedule sweeps as engine events instead).
	nextSweep time.Duration

	prevVersion    []int
	prevGen        []int
	prevCatchupSum []float64
	prevCatchupN   []int
	prevCounters   counterSet
}

func newAuditor(s *simulation) *auditor {
	a := &auditor{
		s:              s,
		cadence:        defaultAuditCadence,
		prevVersion:    make([]int, len(s.nodes)),
		prevGen:        make([]int, len(s.nodes)),
		prevCatchupSum: make([]float64, len(s.nodes)),
		prevCatchupN:   make([]int, len(s.nodes)),
	}
	if s.cfg.Audit.Cadence > 0 {
		a.cadence = s.cfg.Audit.Cadence
	}
	a.nextSweep = a.cadence
	a.delayBound = s.regimeMaxDelay()
	return a
}

// regimeMaxDelay computes the sound upper bound on one server catch-up delay,
// or 0 when no such bound exists. A strict bound holds only in the fault-free
// regime (no injected faults, no crash-stops — each of those legitimately
// stretches staleness to the outage length) and only for methods whose pull
// is periodic by construction: TTL, AdaptiveTTL (whose poll period is capped
// at 4x ServerTTL), and Push (immediate relay). The
// visit-driven methods (Invalidation, Self-adaptive, Lease, Regime) refresh a
// replica only when traffic arrives, so a rarely-visited server can lag
// arbitrarily long without any invariant being broken.
func (s *simulation) regimeMaxDelay() time.Duration {
	cfg := s.cfg
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		return 0
	}
	if cfg.Federation != nil {
		// Per-provider TTL overrides and propagation delays break the
		// uniform per-hop bound; only non-negativity is enforced.
		return 0
	}
	switch cfg.Method {
	case consistency.MethodTTL, consistency.MethodAdaptiveTTL, consistency.MethodPush:
	default:
		return 0
	}
	depth := s.tree.MaxDepth()
	if depth < 1 {
		depth = 1
	}
	// Per-hop worst case: the longest poll period (AdaptiveTTL caps at
	// 4x ServerTTL), plus a delivery allowance covering antipodal
	// propagation, inter-ISP penalty, and uplink queuing of a full fanout of
	// update payloads behind one transmission.
	netCfg := s.cells[0].net.Config()
	const antipodalKm = 20038.0
	prop := netmodel.PropagationBound(antipodalKm)
	// An uplink backlog is bounded by everything ever enqueued, not one
	// fanout: when updates arrive faster than the link drains (the
	// Figure-19 saturation regime), waves pile up behind each other.
	waves := float64(len(cfg.Updates))
	if waves < 1 {
		waves = 1
	}
	queue := time.Duration(waves * float64(len(s.nodes)) * cfg.UpdateSizeKB / netCfg.DefaultUplinkKBps * float64(time.Second))
	perHop := 4*cfg.ServerTTL + 2*(prop+queue)
	// Double the depth product as slack: the bound must never false-positive
	// on a healthy run, only catch corrupted accounting (negative publish
	// times, delays of days).
	return 2 * time.Duration(depth) * perHop
}

// fail records the first violation, stamps it with the simulation clock, and
// — in a serial run — stops the engine so no further (possibly corrupted)
// events execute. A sharded run is aborted by the barrier driver returning
// the violation instead: Stop on one cell would be a cross-cell mutation.
func (a *auditor) fail(v *audit.Violation) {
	if v == nil || a.violation != nil {
		return
	}
	if v.Time == 0 {
		v.Time = a.s.cells[0].eng.Now()
	}
	a.violation = v
	if !a.s.sharded() {
		a.s.cells[0].eng.Stop()
	}
}

// onDelay audits one recorded server catch-up delay as it happens. In a
// sharded run it executes inside the node's cell, so the finding is parked
// cell-locally (stamped with the cell's own clock) and promoted at the next
// barrier — no shared auditor state is touched mid-window.
func (a *auditor) onDelay(nodeIdx int, delay time.Duration) {
	if a.s.sharded() {
		c := a.s.cell(nodeIdx)
		if c.audDelayViol != nil {
			return
		}
		if v := audit.CheckBoundedDelay(delayLabel(nodeIdx), delay, a.delayBound); v != nil {
			v.Server = nodeIdx
			v.Time = c.eng.Now()
			c.audDelayViol = v
		}
		return
	}
	if a.violation != nil {
		return
	}
	if v := audit.CheckBoundedDelay(delayLabel(nodeIdx), delay, a.delayBound); v != nil {
		v.Server = nodeIdx
		a.fail(v)
	}
}

// delayLabel names node nodeIdx's catch-up delay in a delay violation.
func delayLabel(nodeIdx int) audit.Label {
	return audit.Label{Format: "catch-up delay of node %d", Index: nodeIdx}
}

// onTreeMutation re-checks the overlay tree immediately after a failover
// mutation (crash-time repair, detection-driven reparent, recovery rejoin),
// so a mutation that corrupts the tree is caught at the event that caused it
// rather than at the next cadence sweep. In a sharded run the tree spans
// cells, so the re-check cannot run mid-window, while other cells' clocks
// differ; the mutation is flagged in node nodeIdx's cell and re-checked at
// the next barrier, when every cell is quiescent.
func (a *auditor) onTreeMutation(nodeIdx int, where string) {
	if a.s.sharded() {
		c := a.s.cell(nodeIdx)
		if c.audPendingTree == 0 {
			c.audTreeWhere = where
		}
		c.audPendingTree++
		return
	}
	if a.violation != nil {
		return
	}
	a.checks++
	if v := a.checkTree(); v != nil {
		v.Detail = where + ": " + v.Detail
		a.fail(v)
	}
}

// barrier is the sharded auditor driver, invoked by the engine at every
// window barrier (and once more after the run drains) with the barrier time.
// Cells are quiescent, so it may read any cell's state: it promotes
// cell-local delay findings in deterministic cell order, re-checks the tree
// if any cell flagged a failover mutation since the last barrier, and runs
// the full cadence sweep whenever the barrier crosses a cadence boundary. A
// non-nil return aborts the sharded run with the violation.
func (a *auditor) barrier(now time.Duration) error {
	if a.violation != nil {
		return a.violation
	}
	for _, c := range a.s.cells {
		if c.audDelayViol != nil {
			a.violation = c.audDelayViol
			return a.violation
		}
	}
	where, pending := "", false
	for _, c := range a.s.cells {
		if c.audPendingTree > 0 {
			if !pending {
				where = c.audTreeWhere
			}
			pending = true
			c.audPendingTree = 0
			c.audTreeWhere = ""
		}
	}
	if pending {
		a.checks++
		if v := a.checkTree(); v != nil {
			v.Detail = where + ": " + v.Detail
			v.Time = now
			a.violation = v
			return v
		}
	}
	if now >= a.nextSweep {
		// Every event before now ran; the ones at now have not.
		a.s.um.settleAll(now, false)
		a.checks++
		if v := a.check(); v != nil {
			v.Time = now
			a.violation = v
			return v
		}
		for a.nextSweep <= now {
			a.nextSweep += a.cadence
		}
	}
	return nil
}

// checkTree runs the shared structural predicate in live (tolerant) mode: a
// failed best-effort repair may leave a live subtree anchored under a dead
// detached relay, which is recorded degradation, not corruption.
func (a *auditor) checkTree() *audit.Violation {
	degree := 0
	if a.s.cfg.Infra == consistency.InfraMulticast {
		degree = a.s.cfg.TreeDegree
	}
	return audit.CheckTree(a.s.tree, degree, a.s.alive, true)
}

// sweep runs the full conservation-property set. It is scheduled at cadence
// through the engine (so Time stamps are exact) and once more after the run
// drains.
func (a *auditor) sweep() {
	if a.violation != nil {
		return
	}
	a.s.um.settleAll(a.s.cells[0].eng.Now(), true)
	a.checks++
	if v := a.check(); v != nil {
		a.fail(v)
	}
}

func (a *auditor) check() *audit.Violation {
	s := a.s
	if v := a.checkTree(); v != nil {
		return v
	}
	if v := a.checkNodes(); v != nil {
		return v
	}
	if v := a.checkUsers(); v != nil {
		return v
	}
	if v := a.checkCounters(); v != nil {
		return v
	}
	if v := a.checkDelivery(); v != nil {
		return v
	}
	if v := a.checkVisitTraffic(); v != nil {
		return v
	}
	if v := a.checkFederation(); v != nil {
		return v
	}
	// The copy-free view keeps the per-sweep conservation check from cloning
	// the whole per-sender ledger every cadence. Each cell books its own
	// senders' traffic, so the ledger invariants hold cell by cell.
	for _, c := range s.cells {
		if v := audit.CheckAccounting(c.net.View()); v != nil {
			return v
		}
	}
	return nil
}

// checkNodes verifies per-node version and catch-up accounting invariants:
// versions stay within [0, published] and move monotonically within one
// incarnation (a crash or recovery bumps gen and may legally reset the
// version), catch-up sums are finite, non-negative, and never run backwards,
// and a down node is never counted live by the tree bookkeeping.
func (a *auditor) checkNodes() *audit.Violation {
	s := a.s
	for i, nd := range s.nodes {
		// Each cell advances its own published marker, and a node's version
		// only moves through its own cell's events, so the bound that is
		// exact at any barrier is the node's own cell's published — a lagging
		// (idle-skipped) cell simply has both sides lagging together.
		published := s.cell(i).published
		if nd.version < 0 || nd.version > published {
			v := violationAt("version-bounds", i,
				"node %d holds version %d outside [0, %d]", i, nd.version, published)
			v.Snapshot = a.nodeSnapshot(nd)
			return v
		}
		if nd.gen == a.prevGen[i] && nd.version < a.prevVersion[i] {
			v := violationAt("version-monotonic", i,
				"node %d regressed from version %d to %d within generation %d",
				i, a.prevVersion[i], nd.version, nd.gen)
			v.Snapshot = a.nodeSnapshot(nd)
			return v
		}
		if nd.recovering && (nd.syncTarget < 0 || nd.syncTarget > published) {
			return violationAt("version-bounds", i,
				"node %d recovering toward %d outside [0, %d]", i, nd.syncTarget, published)
		}
		if v := audit.CheckSeriesEntry(audit.Label{Format: "node %d catchupSum", Index: i}, 0, nd.catchupSum); v != nil {
			v.Server = i
			return v
		}
		if nd.catchupSum < a.prevCatchupSum[i] || nd.catchupN < a.prevCatchupN[i] {
			v := violationAt("catchup-accounting", i,
				"node %d catch-up accounting ran backwards: sum %v->%v n %d->%d",
				i, a.prevCatchupSum[i], nd.catchupSum, a.prevCatchupN[i], nd.catchupN)
			v.Snapshot = a.nodeSnapshot(nd)
			return v
		}
		if nd.catchupN == 0 && nd.catchupSum != 0 {
			return violationAt("catchup-accounting", i,
				"node %d accumulated %v seconds over zero catch-ups", i, nd.catchupSum)
		}
		if i > 0 && nd.down && s.alive[i] {
			return violationAt("liveness-bookkeeping", i,
				"node %d is down but still marked alive in the tree bookkeeping", i)
		}
		a.prevVersion[i], a.prevGen[i] = nd.version, nd.gen
		a.prevCatchupSum[i], a.prevCatchupN[i] = nd.catchupSum, nd.catchupN
	}
	return nil
}

// checkUsers delegates to the user model's own invariants: per-stratum
// accounting sanity, population conservation (Σ cohort counts constant
// across churn and re-homing), home bounds, and no cohort parked where its
// next visit acts.
func (a *auditor) checkUsers() *audit.Violation {
	return a.s.um.audit()
}

// checkVisitTraffic cross-checks the batched visit accounting against the
// traffic ledger: under AccountVisits, every booked request is a
// content-class message and nothing else emits content-class traffic, so the
// ledger's content count must equal the independent visitsAccounted counter
// exactly — a batch lost (or double-booked) on the way into the ledger is a
// conservation violation.
func (a *auditor) checkVisitTraffic() *audit.Violation {
	s := a.s
	if !s.cfg.AccountVisits {
		return nil
	}
	// A visit is booked in the ledger and the counter of the same cell, so
	// the conservation law holds per cell — strictly stronger than comparing
	// the sums.
	for i, c := range s.cells {
		if got := c.net.View().Class(netmodel.ClassContent).Messages; got != c.visitsAccounted {
			return violationAt("visit-traffic-conservation", -1,
				"cell %d ledger holds %d content messages for %d accounted visits", i, got, c.visitsAccounted)
		}
	}
	return nil
}

// cellCounters lists every per-cell cumulative counter the sweep checks.
// Each must be non-negative and monotone between sweeps (per-cell counters
// only grow, so their sums over cells do too).
var cellCounters = [...]struct {
	name string
	of   func(*cellState) int
}{
	{"crashes", func(c *cellState) int { return c.crashes }},
	{"recoveries", func(c *cellState) int { return c.recoveries }},
	{"failedVisits", func(c *cellState) int { return c.failedVisits }},
	{"userFailovers", func(c *cellState) int { return c.userFailovers }},
	{"serverReparents", func(c *cellState) int { return c.serverReparents }},
	{"ttlFallbacks", func(c *cellState) int { return c.ttlFallbacks }},
	{"staleObservations", func(c *cellState) int { return c.staleObservations }},
	{"updateMsgsToServers", func(c *cellState) int { return c.updateMsgsToServers }},
	{"updateMsgsFromProvider", func(c *cellState) int { return c.updateMsgsFromProvider }},
	{"lightMsgs", func(c *cellState) int { return c.lightMsgs }},
	{"dnsVisits", func(c *cellState) int { return c.dnsVisits }},
	{"dnsRedirects", func(c *cellState) int { return c.dnsRedirects }},
	{"deliverAttempts", func(c *cellState) int { return c.deliverAttempts }},
	{"deliverSends", func(c *cellState) int { return c.deliverSends }},
	{"visitsAccounted", func(c *cellState) int { return c.visitsAccounted }},
	{"degradedEnters", func(c *cellState) int { return c.degradedEnters }},
	{"degradedExits", func(c *cellState) int { return c.degradedExits }},
	{"providerSwitches", func(c *cellState) int { return c.providerSwitches }},
	{"peerHandoffs", func(c *cellState) int { return c.peerHandoffs }},
}

// counterSet holds one sweep's view of the cumulative counters: entry 0 is
// the modeled population (constant, so the monotone-counter check doubles
// as a second population-conservation signal), entry k+1 is cellCounters[k]
// summed over cells. A fixed array keeps the sweep off the heap.
type counterSet [len(cellCounters) + 1]int

// counterName names entry k of a counterSet.
func counterName(k int) string {
	if k == 0 {
		return "modeledUsers"
	}
	return cellCounters[k-1].name
}

func (a *auditor) counterView() counterSet {
	var view counterSet
	view[0] = a.s.um.totalUsers()
	for _, c := range a.s.cells {
		for k := range cellCounters {
			view[k+1] += cellCounters[k].of(c)
		}
	}
	return view
}

func (a *auditor) checkCounters() *audit.Violation {
	cur := a.counterView()
	for k, val := range cur {
		if val < 0 {
			return violationAt("counter-nonnegative", -1, "%s = %d", counterName(k), val)
		}
		if v := audit.CheckMonotonicCount(counterName(k), a.prevCounters[k], val); v != nil {
			return v
		}
	}
	a.prevCounters = cur
	// Cross-counter relationships hold cell by cell: a crash, its recovery,
	// a failed visit and the failover it triggers, and a DNS lookup are all
	// booked in the cell that owns the node (users never leave their home
	// cell), so the per-cell check is strictly stronger than the summed one.
	for i, c := range a.s.cells {
		if v := audit.CheckCount(audit.Label{Format: "cell %d recoveries vs crashes", Index: i}, c.recoveries, c.crashes); v != nil {
			return v
		}
		if len(c.recoverySeconds) != c.recoveries {
			return violationAt("catchup-accounting", -1,
				"cell %d: %d recovery durations recorded for %d recoveries", i, len(c.recoverySeconds), c.recoveries)
		}
		if v := audit.CheckCount(audit.Label{Format: "cell %d userFailovers vs failedVisits", Index: i}, c.userFailovers, c.failedVisits); v != nil {
			return v
		}
		if v := audit.CheckCount(audit.Label{Format: "cell %d dnsRedirects vs dnsVisits", Index: i}, c.dnsRedirects, c.dnsVisits); v != nil {
			return v
		}
		// The series index is a recovery ordinal, not a node, so the
		// violation names the cell and no server.
		if v := audit.CheckSeries(audit.Label{Format: "cell %d recoverySeconds", Index: i}, c.recoverySeconds); v != nil {
			v.Server = -1
			return v
		}
	}
	return nil
}

// checkFederation verifies the federation runtime's conservation invariants
// against its independent second ledger: degradation intervals balance
// (enters − exits equals the currently-open intervals, and the reported
// degraded seconds equal the per-node interval sums), durable switches and
// peering hand-offs match the fed-side ledgers, home assignments stay in
// bounds, and no provider ever serves a version newer than the ground truth.
// Tamper with either side of any pair and this check catches the split.
func (a *auditor) checkFederation() *audit.Violation {
	f := a.s.fed
	if f == nil {
		return nil
	}
	c := a.s.cells[0]
	open := 0
	var total float64
	for i := range f.degradedSince {
		if f.degradedSince[i] >= 0 {
			open++
		}
		total += f.degradedTotal[i]
	}
	if c.degradedExits > c.degradedEnters {
		return violationAt("degradation-conservation", -1,
			"%d degradation exits for %d enters", c.degradedExits, c.degradedEnters)
	}
	if c.degradedEnters-c.degradedExits != open {
		return violationAt("degradation-conservation", -1,
			"%d enters - %d exits != %d open degradation intervals",
			c.degradedEnters, c.degradedExits, open)
	}
	if diff := c.degradedSeconds - total; diff > 1e-9 || diff < -1e-9 {
		return violationAt("degradation-ledger", -1,
			"degraded seconds counter %v != per-node interval sum %v", c.degradedSeconds, total)
	}
	if c.providerSwitches != f.ledgerSwitches {
		return violationAt("switch-ledger", -1,
			"providerSwitches counter %d != federation ledger %d", c.providerSwitches, f.ledgerSwitches)
	}
	if c.peerHandoffs != f.ledgerHandoffs {
		return violationAt("handoff-ledger", -1,
			"peerHandoffs counter %d != federation ledger %d", c.peerHandoffs, f.ledgerHandoffs)
	}
	s := a.s
	for _, nd := range s.nodes[1:] {
		if nd.prov < 0 || nd.prov >= len(s.prov) {
			return violationAt("home-bounds", nd.idx,
				"node %d homed at invalid provider %d of %d", nd.idx, nd.prov, len(s.prov))
		}
	}
	for k, p := range s.prov {
		if p.version < 0 || p.version > c.published {
			return violationAt("provider-version-bounds", -1,
				"provider %d serves version %d outside [0, %d]", k, p.version, c.published)
		}
	}
	return nil
}

// checkDelivery verifies delivery conservation: every delivery attempt either
// entered the network or was dropped with a recorded cause. An attempt
// unaccounted for in either column means a message silently vanished.
func (a *auditor) checkDelivery() *audit.Violation {
	// Attempts, sends, and drops are all booked in the sender's cell, so
	// delivery conservation holds per cell.
	for i, c := range a.s.cells {
		dropped := 0
		for cause, n := range c.deliverDrops {
			if n < 0 {
				return violationAt("delivery-conservation", -1, "cell %d drop cause %q count %d", i, cause, n)
			}
			dropped += n
		}
		if c.deliverAttempts != c.deliverSends+dropped {
			v := violationAt("delivery-conservation", -1,
				"cell %d: %d delivery attempts != %d sends + %d recorded drops",
				i, c.deliverAttempts, c.deliverSends, dropped)
			v.Snapshot = fmt.Sprintf("drops=%v", c.deliverDrops)
			return v
		}
	}
	return nil
}

func (a *auditor) nodeSnapshot(nd *node) string {
	return fmt.Sprintf("node %d: version=%d gen=%d down=%v recovering=%v syncTarget=%d catchupSum=%v catchupN=%d published=%d",
		nd.idx, nd.version, nd.gen, nd.down, nd.recovering, nd.syncTarget,
		nd.catchupSum, nd.catchupN, a.s.cell(nd.idx).published)
}

// scheduleAuditSelfTest arms the deliberate corruption named by
// AuditOptions.SelfTest: one event halfway through the run flips a single
// invariant, scheduled in the cell that owns the mutated state so the
// injection is legal under sharding. The run must then fail with the matching
// property — proving the tripwire end-to-end. withDefaults has already
// validated the name.
func (s *simulation) scheduleAuditSelfTest() {
	at := s.horizon / 2
	switch s.cfg.Audit.SelfTest {
	case "version-bounds":
		// Push a replica's version far beyond anything published. Versions
		// only ever move forward, so the corruption cannot self-heal through
		// an ordinary fetch before the next sweep observes it.
		s.at(1, at, func() { s.nodes[1].version += 1 << 20 })
	case "counter-negative":
		// Drive a cumulative counter far negative; the next counter sweep
		// trips counter-nonnegative.
		s.at(0, at, func() { s.cell(0).lightMsgs -= 1 << 40 })
	case "delivery-conservation":
		// Book a delivery attempt with no matching send or drop.
		s.at(0, at, func() { s.cell(0).deliverAttempts++ })
	}
}

// violationAt builds a violation pinned to one server (or -1 for global).
func violationAt(property string, server int, format string, args ...any) *audit.Violation {
	return &audit.Violation{Property: property, Server: server, Detail: fmt.Sprintf(format, args...)}
}
