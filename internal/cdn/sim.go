package cdn

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/dns"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/overlay"
	"cdnconsistency/internal/sim"
	"cdnconsistency/internal/topology"
)

// node is one participant: index 0 is the provider, 1..N are content
// servers (some of which are supernodes under the hybrid infrastructure).
type node struct {
	s   *simulation
	idx int
	ep  netmodel.Endpoint

	version int  // newest snapshot held
	valid   bool // false after an invalidation until the next fetch

	// Invalidation fetch deduplication: children waiting for our answer
	// while our own fetch is in flight, plus local completion callbacks
	// (deferred user observations), and the in-flight fetch's timeout.
	fetchInFlight  bool
	waiters        []int
	fetchCallbacks []fetchCallback
	fetchTimer     sim.Timer

	// Per-method state.
	auto  *consistency.SelfAdaptive
	adapt *consistency.AdaptiveTTL
	// Regime-method state: the controller and its cached decision on
	// servers; the push-regime registry on the provider.
	rc       *consistency.RegimeController
	regime   consistency.Regime
	pushSubs map[int]bool
	// subscribers tracks children that switched to Invalidation under the
	// self-adaptive method; the value records whether the pending
	// invalidation notice was already sent (updates aggregate until the
	// child's first visit, Section 5.1).
	subscribers map[int]bool

	// pollStopped marks self-adaptive nodes whose TTL loop is paused.
	pollStopped bool

	// Ground-truth inconsistency accounting.
	catchupSum float64
	catchupN   int

	isSupernode bool
	// down marks a crash-stopped server: it no longer responds, polls,
	// forwards, or serves visits.
	down bool
	// gen is the node's incarnation, bumped on every crash and recovery.
	// Scheduled continuations (poll loops, timeouts, epoch timers) capture
	// the generation they were armed under and become no-ops when it
	// changes, so a recovery never resurrects a pre-crash loop alongside
	// its own.
	gen int
	// fetchSeq / leaseSeq identify the in-flight fetch or lease renewal so
	// its timeout cannot abort a later operation.
	fetchSeq int
	leaseSeq int
	// Crash-recovery bookkeeping: a recovering node has lost its state and
	// counts as recovered once it re-syncs to syncTarget (the provider's
	// version at recovery time).
	recovering bool
	syncTarget int
	recoverAt  time.Duration
	// watchdogArmed guards the single TTL-fallback watchdog per node.
	watchdogArmed bool
	// prov is the node's home provider, an index into the provider table:
	// 0 for every node in a classic run; under federation the anycast
	// nearest at setup, durably re-homed by retry exhaustion and the broker.
	prov int

	// Cooperative-lease state: on servers, the local lease expiry and a
	// renewal-in-flight flag; on the provider, the leaseholder registry.
	leaseExpiry   time.Duration
	leaseRenewing bool
	leases        map[int]time.Duration
}

// provider is one origin in the provider table. A classic run holds exactly
// one: provider 0, on node 0's endpoint, with no propagation lag and the
// configured ServerTTL. A federated run holds one per federation.Spec entry;
// provider 0 shares node 0's endpoint ID and Key, the others take their own
// (see newFedState). Its outage and version state is only ever touched from
// node 0's cell; senders elsewhere read only the fixed endpoint and TTL.
type provider struct {
	ep netmodel.Endpoint
	// down marks an unreachable provider (fault-driven); version is the
	// newest snapshot it serves, which under federation trails the ground
	// truth by its propagation delay.
	down    bool
	version int
	// pendingDissem defers this provider's dissemination while it is down;
	// released by its own provider-up event.
	pendingDissem bool
	// ttl overrides Config.ServerTTL for servers homed here (0 = inherit);
	// propagation is the publication-to-servable delay at this provider.
	ttl         time.Duration
	propagation time.Duration
}

type simulation struct {
	cfg  Config
	topo *topology.Topology
	tree *overlay.Tree

	// Execution cells (see sharded.go). A serial run has exactly one cell
	// holding every node; a sharded run has one cell per topology partition,
	// driven by shEng's conservative window barrier. cellOf maps node index
	// to owning cell; all clocks, RNG draws, network traffic, and counters
	// route through the owning cell.
	cells  []*cellState
	cellOf []int
	shEng  *sim.Sharded

	nodes []*node
	// um is the end-user population: cohorts (cohort.go), one per user
	// under the explicit model; see usermodel.go.
	um userModel

	// locs and alive support multicast tree repair after failures.
	locs  []geo.Point
	alive []bool
	auth  *dns.Authoritative

	// Broadcast flooding clusters.
	clusterOf      []int
	clusterMembers [][]int

	// publishAt[snapshot] is the absolute publication time (snapshot ids
	// are 1-based; index 0 unused).
	publishAt []time.Duration
	horizon   time.Duration

	// faultEvents is the compiled fault schedule.
	faultEvents []fault.Event

	// prov is the provider table, the only origin state: one provider per
	// federated origin, or a classic run's one provider, which lives in
	// origin so that the table costs the run no allocation.
	prov   []provider
	origin [1]provider

	// fed is the multi-CDN federation runtime, nil unless cfg.Federation is
	// set (serial-only; withDefaults rejects Federation under sharding). It
	// holds what only a federated run does: routing, degradation, the broker.
	fed *fedState

	// aud is the runtime invariant auditor, nil unless cfg.Audit is set.
	// Serial runs sweep via engine events; sharded runs sweep at window
	// barriers (see auditor.barrier).
	aud *auditor

	// pollFree holds the poll records (pollRec) no pending event refers to.
	pollFree []*pollRec
}

func newSimulation(cfg Config) (*simulation, error) {
	if len(cfg.Updates) == 0 {
		// Without at least one publication there is no horizon to run to
		// (and no snapshot to disseminate); indexing the schedule below
		// would panic.
		return nil, fmt.Errorf("cdn: no updates configured")
	}
	topo := cfg.Topo
	if topo == nil {
		var err error
		topo, err = topology.Generate(cfg.Topology)
		if err != nil {
			return nil, fmt.Errorf("cdn: %w", err)
		}
	}
	s := &simulation{
		cfg:  cfg,
		topo: topo,
	}

	// Node 0 is the provider.
	s.nodes = append(s.nodes, &node{
		s:     s,
		idx:   0,
		ep:    endpoint(0, ProviderSender(0), topo.Provider.Loc, topo.Provider.ISP),
		valid: true,
	})
	for i, srv := range topo.Servers {
		s.nodes = append(s.nodes, &node{
			s:     s,
			idx:   i + 1,
			ep:    endpoint(i+1, srv.ID, srv.Loc, srv.ISP),
			valid: true,
		})
	}

	s.locs = make([]geo.Point, len(s.nodes))
	s.alive = make([]bool, len(s.nodes))
	for i, nd := range s.nodes {
		s.locs[i] = nd.ep.Loc
		s.alive[i] = true
	}

	if err := s.buildTree(); err != nil {
		return nil, err
	}

	// Cells come after the tree (the partition follows the communication
	// topology) but before anything that draws randomness: in serial mode
	// the one cell's engine is seeded exactly as the classic engine was, so
	// every setup-time draw below consumes the same stream positions.
	if err := s.initCells(); err != nil {
		return nil, err
	}

	s.origin[0].ep = s.nodes[0].ep
	s.prov = s.origin[:]
	if cfg.Federation != nil {
		// The federation runtime draws no randomness (anycast homing is a
		// pure function of locations), so the engine RNG stream below is
		// untouched by its construction.
		s.fed = newFedState(s, cfg.Federation)
	}

	if cfg.ResolverTTL > 0 {
		entries := make([]dns.ServerEntry, 0, len(topo.Servers))
		for i, srv := range topo.Servers {
			entries = append(entries, dns.ServerEntry{Index: i + 1, Loc: srv.Loc})
		}
		auth, err := dns.NewAuthoritative(entries, s.rng(0))
		if err != nil {
			return nil, fmt.Errorf("cdn: %w", err)
		}
		s.auth = auth
	}

	s.publishAt = make([]time.Duration, len(cfg.Updates)+1)
	for _, u := range cfg.Updates {
		if u.Snapshot <= 0 || u.Snapshot >= len(s.publishAt) {
			return nil, fmt.Errorf("cdn: update snapshot %d outside 1..%d", u.Snapshot, len(cfg.Updates))
		}
		s.publishAt[u.Snapshot] = startDelay + u.At
	}
	last := cfg.Updates[len(cfg.Updates)-1].At
	s.horizon = startDelay + last + cfg.HorizonSlack

	if cfg.Population != nil && len(cfg.Population.Servers) != len(topo.Servers) {
		return nil, fmt.Errorf("cdn: population spans %d servers, topology has %d",
			len(cfg.Population.Servers), len(topo.Servers))
	}
	s.um = &cohortUsers{s: s}

	if cfg.Faults != nil && !cfg.Faults.Empty() {
		isps := make([]int, len(topo.Servers))
		for i, srv := range topo.Servers {
			isps[i] = srv.ISP
		}
		// A dedicated RNG stream (not the engine's) keeps topology and user
		// schedules identical between runs with and without faults.
		frng := rand.New(rand.NewSource(cfg.Seed + 0x0fa17))
		events, err := fault.Compile(*cfg.Faults, fault.Env{
			Servers:   len(topo.Servers),
			Locs:      s.locs[1:],
			ISPs:      isps,
			Horizon:   s.horizon,
			Providers: len(s.prov),
		}, frng)
		if err != nil {
			return nil, fmt.Errorf("cdn: %w", err)
		}
		s.faultEvents = events
	}
	return s, nil
}

// endpoint is node idx's network endpoint. Its network Key is idx + 1:
// dense over the nodes, and positive as netmodel requires.
func endpoint(idx int, id string, loc geo.Point, isp int) netmodel.Endpoint {
	return netmodel.Endpoint{ID: id, Key: idx + 1, Loc: loc, ISP: isp}
}

// buildTree constructs the update infrastructure over node indices.
func (s *simulation) buildTree() error {
	n := len(s.nodes) - 1
	switch s.cfg.Infra {
	case consistency.InfraUnicast:
		t, err := overlay.BuildUnicastStar(n)
		if err != nil {
			return err
		}
		s.tree = t
	case consistency.InfraMulticast:
		locs := make([]geo.Point, len(s.nodes))
		for i, nd := range s.nodes {
			locs[i] = nd.ep.Loc
		}
		t, err := overlay.BuildMulticast(locs, s.cfg.TreeDegree)
		if err != nil {
			return err
		}
		s.tree = t
	case consistency.InfraHybrid:
		return s.buildHybridTree()
	case consistency.InfraBroadcast:
		t, err := overlay.BuildUnicastStar(n)
		if err != nil {
			return err
		}
		s.tree = t
		return s.buildBroadcastClusters()
	default:
		return fmt.Errorf("cdn: unsupported infra %v", s.cfg.Infra)
	}
	return nil
}

// buildHybridTree implements Section 5.2: Hilbert-curve clusters, one
// supernode each, supernodes in a proximity-aware k-ary multicast tree under
// the provider, members in a star under their supernode.
func (s *simulation) buildHybridTree() error {
	clusters, err := s.topo.HilbertClusters(s.cfg.Clusters)
	if err != nil {
		return err
	}
	supernode := make([]int, len(clusters)) // node index of each cluster's supernode
	for ci, cl := range clusters {
		sn, err := s.topo.ElectSupernode(cl)
		if err != nil {
			return err
		}
		supernode[ci] = sn + 1 // node indices are server index + 1
		s.nodes[sn+1].isSupernode = true
	}

	// Proximity multicast over [provider, supernodes...].
	locs := make([]geo.Point, 0, len(supernode)+1)
	locs = append(locs, s.nodes[0].ep.Loc)
	for _, sn := range supernode {
		locs = append(locs, s.nodes[sn].ep.Loc)
	}
	snTree, err := overlay.BuildMulticast(locs, s.cfg.SupernodeDegree)
	if err != nil {
		return err
	}

	// Translate into a parent array over all nodes.
	parents := make([]int, len(s.nodes))
	parents[0] = overlay.NoParent
	for ci, sn := range supernode {
		p := snTree.Parent(ci + 1) // position in the supernode tree
		if p == 0 {
			parents[sn] = 0
		} else {
			parents[sn] = supernode[p-1]
		}
	}
	for ci, cl := range clusters {
		for _, m := range cl.Members {
			ni := m + 1
			if ni == supernode[ci] {
				continue
			}
			parents[ni] = supernode[ci]
		}
	}
	t, err := overlay.NewTreeFromParents(parents)
	if err != nil {
		return err
	}
	s.tree = t
	return nil
}

// deliver sends a message from node `from` to node `to` and schedules
// onArrival at the arrival time, in the receiver's cell. It is deliverVia
// with provider 0 carrying node 0's end: the classic origin, or federated
// provider 0 on node 0's endpoint.
func (s *simulation) deliver(from, to int, sizeKB float64, class netmodel.Class, onArrival func()) {
	s.deliverVia(from, to, 0, sizeKB, class, onArrival)
}

// deliverVia is deliverFunc with a closure for the arrival.
func (s *simulation) deliverVia(from, to, k int, sizeKB float64, class netmodel.Class, onArrival func()) {
	s.deliverFunc(from, to, k, sizeKB, class, sim.Thunk, onArrival, 0)
}

// deliverFunc sends a message between two nodes; when one end is node 0, the
// origin, provider k's endpoint sends or receives it. The message is booked
// in the sender's cell: its network view queues it on the sender's uplink
// and its counters take the tally, so per-cell ledgers partition the run's
// traffic exactly. fn(e, recv, arg) runs at the arrival time in the
// receiver's cell, scheduled as it is, so the send allocates nothing.
// A cross-cell arrival goes through the sharded engine's barrier exchange;
// only node 0 talks across cells, and netmodel guarantees the arrival lands
// at least one propagation delay after the send, so it never violates the
// conservative window. A cross-cell message between two other nodes panics.
// When an active partition separates the endpoints, the message is dropped
// on the floor — it never enters the network, is not accounted, and the
// sender only learns about it through its own timeout. deliverFunc reports
// whether the message was sent, that is, whether fn will run.
func (s *simulation) deliverFunc(from, to, k int, sizeKB float64, class netmodel.Class, fn sim.FuncHandler, recv any, arg int64) bool {
	arrival, ok := s.send(from, to, k, sizeKB, class)
	switch {
	case !ok:
	case s.sharded():
		// A lookahead violation is recorded per source cell and aborts Run
		// at the next barrier, so the error need not propagate from here.
		s.shEng.Send(s.cellOf[from], s.cellOf[to], arrival, fn, recv, arg) //nolint:errcheck
	default:
		s.cell(to).eng.ScheduleAtFunc(arrival, fn, recv, arg) //nolint:errcheck // arrival >= now
	}
	return ok
}

// send books one message of a delivery in the sender's cell and returns its
// arrival time; ok is false when a partition dropped it.
func (s *simulation) send(from, to, k int, sizeKB float64, class netmodel.Class) (arrival time.Duration, ok bool) {
	src, dst := &s.nodes[from].ep, &s.nodes[to].ep
	if from == 0 {
		src = &s.prov[k].ep
	} else if to == 0 {
		dst = &s.prov[k].ep
	}
	c := s.cell(from)
	c.deliverAttempts++
	if !c.net.Reachable(*src, *dst) {
		s.dropDelivery(from, "partition")
		return 0, false
	}
	c.deliverSends++
	arrival = c.net.Send(*src, *dst, sizeKB, class, c.eng.Now())
	switch class {
	case netmodel.ClassUpdate:
		if to != 0 {
			c.updateMsgsToServers++
		}
		if from == 0 {
			c.updateMsgsFromProvider++
		}
	case netmodel.ClassLight:
		c.lightMsgs++
	}
	if s.sharded() {
		if fromCell, toCell := s.cellOf[from], s.cellOf[to]; fromCell != toCell && from != 0 && to != 0 {
			// The lookahead bounds only node 0's cross-cell traffic
			// (partitionCells); any other cross-cell pair could arrive
			// inside a window.
			panic(fmt.Sprintf("cdn: cross-cell message %d (cell %d) -> %d (cell %d) without the origin at one end", from, fromCell, to, toCell))
		}
	}
	return arrival, true
}

// dark reports whether parent p cannot answer: a crashed relay or, when p is
// the origin, provider k down. Throughout, a contact with parent p carries a
// provider index k (see route): when p is node 0, provider k sends and
// answers for it; a relay answers for itself and ignores k, so relay steps
// pass 0.
func (s *simulation) dark(p, k int) bool {
	if p == 0 {
		return s.prov[k].down
	}
	return s.nodes[p].down
}

// served is the version parent p answers with: provider k's when p is the
// origin, the relay's own otherwise.
func (s *simulation) served(p, k int) int {
	if p == 0 {
		return s.prov[k].version
	}
	return s.nodes[p].version
}

// pollTTL is node i's poll period: its home provider's TTL override, or the
// configured ServerTTL (always, in a classic run).
func (s *simulation) pollTTL(i int) time.Duration {
	if t := s.prov[s.nodes[i].prov].ttl; t > 0 {
		return t
	}
	return s.cfg.ServerTTL
}

// dropDelivery records a dropped delivery attempt under its cause in the
// sender's cell, keeping the delivery-conservation ledger balanced: a drop
// without a recorded cause is exactly the silent message loss the auditor
// exists to catch.
func (s *simulation) dropDelivery(from int, cause string) {
	c := s.cell(from)
	if c.deliverDrops == nil {
		c.deliverDrops = make(map[string]int)
	}
	c.deliverDrops[cause]++
}

// setVersion advances a node's content and records ground-truth catch-up
// delays for every update the node just caught.
func (s *simulation) setVersion(nd *node, v int) {
	if v <= nd.version {
		return
	}
	s.um.settle(nd.idx, false)
	now := s.now(nd.idx)
	for id := nd.version + 1; id <= v && id < len(s.publishAt); id++ {
		if at := s.publishAt[id]; at > 0 && now >= at {
			nd.catchupSum += (now - at).Seconds()
			nd.catchupN++
			if s.aud != nil && nd.idx > 0 {
				s.aud.onDelay(nd.idx, now-at)
			}
		}
	}
	nd.version = v
	nd.valid = true
	if nd.recovering && nd.idx > 0 && nd.version >= nd.syncTarget {
		// The crash-recovered node caught up to the content the provider
		// held when it came back: recovery complete.
		nd.recovering = false
		c := s.cell(nd.idx)
		c.recoveries++
		c.recoverySeconds = append(c.recoverySeconds, (now - nd.recoverAt).Seconds())
	}
}

func (s *simulation) run() (*Result, error) {
	if s.cfg.Ctx != nil && s.cfg.Ctx.Err() != nil {
		// The event loop polls Ctx once per tick stride, which a short run
		// never reaches.
		return nil, fmt.Errorf("cdn: %w", s.cfg.Ctx.Err())
	}
	s.schedulePublications()
	if err := s.scheduleServerLoops(); err != nil {
		return nil, err
	}
	if err := s.um.schedule(); err != nil {
		return nil, err
	}
	s.scheduleFaults()
	if s.fed != nil && s.fed.brokerPeriod > 0 {
		// The meta-CDN broker is a periodic engine event: deterministic
		// timing, no randomness, serial-only like the rest of federation.
		if _, err := s.cells[0].eng.Every(s.fed.brokerPeriod, func(*sim.Engine) { s.fedBrokerTick() }); err != nil {
			return nil, fmt.Errorf("cdn: broker period: %w", err)
		}
	}
	if s.cfg.Audit != nil {
		// Sweeps observe global state, so they must never run concurrently
		// with a handler. Serial runs make them ordinary events of the one
		// engine; sharded runs piggyback on the window barrier, where every
		// cell is parked — which also keeps Result.Events identical with
		// auditing on or off.
		s.aud = newAuditor(s)
		if s.sharded() {
			s.shEng.SetBarrierHook(func(now time.Duration) error { return s.aud.barrier(now) })
		} else if _, err := s.cells[0].eng.Every(s.aud.cadence, func(*sim.Engine) { s.aud.sweep() }); err != nil {
			return nil, fmt.Errorf("cdn: audit cadence: %w", err)
		}
		s.scheduleAuditSelfTest()
	}
	if ctx := s.cfg.Ctx; ctx != nil {
		// Every cell checks cancellation.
		tick := func() error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
				return nil
			}
		}
		for _, c := range s.cells {
			c.eng.SetTick(tick)
		}
	}
	var runErr error
	if s.sharded() {
		runErr = s.shEng.Run(s.horizon)
	} else {
		runErr = s.cells[0].eng.Run(s.horizon)
	}
	if runErr == nil {
		// Events at the horizon ran, so the visits parked through it happened.
		s.um.settleAll(s.horizon, true)
	}
	if s.fed != nil {
		// Close still-open degradation intervals at the drained clock so
		// degraded_seconds covers blackouts running into the horizon — and so
		// the auditor's final conservation sweep sees balanced enter/exit
		// ledgers.
		s.fedCloseDegradation()
	}
	if s.aud != nil {
		// One final sweep over the drained state; a violation found here
		// (or mid-run, which stopped the engine early) outranks any engine
		// error because it explains it. A sharded run first drains any
		// cell-local observations parked since the last window barrier.
		if s.sharded() {
			s.aud.barrier(s.horizon) //nolint:errcheck // a violation is recorded in s.aud.violation
		}
		s.aud.sweep()
		if v := s.aud.violation; v != nil {
			return nil, v
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("cdn: %w", runErr)
	}

	acc := s.cells[0].net.Accounting()
	for _, c := range s.cells[1:] {
		acc.Merge(c.net.Accounting())
	}
	events := s.cells[0].eng.Processed()
	if s.sharded() {
		events = s.shEng.Processed()
	}
	res := &Result{
		Accounting: acc,
		TreeDepth:  s.tree.MaxDepth(),
		Events:     events,
	}
	s.mergeCellTallies(res)
	if s.aud != nil {
		res.AuditChecks = s.aud.checks
	}
	finalVersion := len(s.publishAt) - 1
	for _, nd := range s.nodes[1:] {
		avg := 0.0
		if nd.catchupN > 0 {
			avg = nd.catchupSum / float64(nd.catchupN)
		}
		res.ServerAvgInconsistency = append(res.ServerAvgInconsistency, avg)
		if nd.isSupernode {
			res.Supernodes++
		}
		if nd.down {
			res.FailedServers++
			continue
		}
		res.LiveServers++
		if nd.version >= finalVersion {
			res.LiveServersAtFinalVersion++
		}
	}
	s.um.collect(res)
	return res, nil
}

// scheduleFaults arms the compiled fault schedule. Event server indices are
// 0-based server indices; node indices are one higher (node 0 is the
// provider).
func (s *simulation) scheduleFaults() {
	for _, e := range s.faultEvents {
		e := e
		switch e.Op {
		// Node-scoped faults execute in the affected node's cell.
		case fault.OpServerDown:
			s.at(e.Server+1, e.At, func() { s.failServer(e.Server + 1) })
		case fault.OpServerUp:
			s.at(e.Server+1, e.At, func() { s.recoverServer(e.Server + 1) })
		// Provider-scoped faults execute in node 0's cell, which owns the
		// provider table; a classic run's outages name provider 0.
		case fault.OpProviderDown:
			s.at(0, e.At, func() { s.prov[e.Provider].down = true })
		case fault.OpProviderUp:
			s.at(0, e.At, func() { s.recoverProvider(e.Provider) })
		// Network-scoped faults apply to every cell's network view at the
		// fault instant, so all senders see them (serial: the one cell).
		case fault.OpPartitionStart:
			s.eachNet(e.At, func(n *netmodel.Network) { n.SetPartitionGroup(e.Group, e.ISPs) })
		case fault.OpPartitionEnd:
			s.eachNet(e.At, func(n *netmodel.Network) { n.ClearPartitionGroup(e.Group) })
		case fault.OpOverloadStart:
			s.eachNet(e.At, func(n *netmodel.Network) { n.SetOverload(s.nodes[e.Server+1].ep, e.Factor) })
		case fault.OpOverloadEnd:
			s.eachNet(e.At, func(n *netmodel.Network) { n.ClearOverload(s.nodes[e.Server+1].ep) })
		}
	}
}

// failServer crash-stops a node and, when configured, repairs the multicast
// tree around it so its orphaned subtree keeps receiving updates.
func (s *simulation) failServer(v int) {
	nd := s.nodes[v]
	if nd.down {
		return
	}
	if s.aud != nil {
		defer s.aud.onTreeMutation(v, fmt.Sprintf("failServer(%d)", v))
	}
	s.um.settle(v, true)
	nd.down = true
	nd.gen++
	s.um.rearm(v)
	s.cell(v).crashes++
	if s.auth != nil && s.cfg.Failover {
		// Health-check feedback into request routing: the authoritative
		// DNS stops handing out the dead server.
		s.auth.SetLive(v, false)
	}
	// A downed server must never be counted live again: leaving alive[v]
	// set would let a later repair adopt orphans under the dead node (and
	// TotalEdgeKm/Validate would still count it). tree.Remove clears the
	// flag itself on entry; every other path clears it here.
	//
	// Tree repair only applies to degree-bounded multicast trees; the
	// unicast star and hybrid stars have no relaying role to repair
	// (children of the star root are leaves).
	if !s.cfg.RepairTree || s.cfg.Infra != consistency.InfraMulticast {
		s.alive[v] = false
		return
	}
	if err := s.tree.Remove(v, s.locs, s.cfg.TreeDegree, s.alive); err != nil {
		// Repair is best-effort: an unrepairable orphan keeps its old
		// (dead) parent and simply stops receiving updates.
		s.alive[v] = false
		return
	}
}

// recoverServer brings a crash-recovered server back. Its volatile state is
// lost (content, validity, lease, in-flight bookkeeping); it re-joins the
// update infrastructure — under multicast repair via Tree.Reattach to the
// nearest live node — and re-syncs, counting as recovered once it holds the
// content the provider held at recovery time.
func (s *simulation) recoverServer(v int) {
	nd := s.nodes[v]
	if !nd.down {
		return
	}
	if s.aud != nil {
		defer s.aud.onTreeMutation(v, fmt.Sprintf("recoverServer(%d)", v))
	}
	s.um.settle(v, true)
	defer s.um.rearm(v)
	nd.down = false
	nd.gen++
	nd.version = 0
	nd.valid = false
	nd.fetchInFlight = false
	nd.waiters = nil
	nd.fetchCallbacks = nil
	nd.pollStopped = false
	nd.watchdogArmed = false
	nd.leaseExpiry = 0
	nd.leaseRenewing = false
	if s.auth != nil && s.cfg.Failover {
		s.auth.SetLive(v, true)
	}
	if s.cfg.Infra == consistency.InfraMulticast && s.tree.Parent(v) == overlay.NoParent {
		// The node was detached from the tree — at crash time by the
		// RepairTree oracle, or later by a child's detection-driven removal
		// under Failover — so rejoin under the nearest live node with spare
		// degree. On the (rare) failure the node stays orphaned: it serves
		// its empty state but cannot poll anything.
		if err := s.tree.Reattach(v, s.locs, s.cfg.TreeDegree, s.alive); err != nil {
			s.restartServer(v)
			return
		}
	} else {
		s.alive[v] = true
	}
	nd.recovering = true
	// The provider's version at recovery time equals the newest published
	// snapshot (both advance in the same publication event), and the cell's
	// published copy tracks it locally — so the sync target needs no
	// cross-cell read.
	nd.syncTarget = s.cell(v).published
	nd.recoverAt = s.now(v)
	if nd.syncTarget == 0 {
		// Nothing was ever published: recovery is trivially complete.
		nd.recovering = false
		c := s.cell(v)
		c.recoveries++
		c.recoverySeconds = append(c.recoverySeconds, 0)
	}
	s.restartServer(v)
}

// restartServer boots a recovered node's protocol role from scratch, as a
// freshly provisioned cache would.
func (s *simulation) restartServer(i int) {
	nd := s.nodes[i]
	if s.cfg.Infra == consistency.InfraHybrid && nd.isSupernode {
		// Supernodes are push-fed; re-sync the content, then wait for
		// pushes to resume.
		s.resyncFetch(i)
		return
	}
	switch s.cfg.Method {
	case consistency.MethodPush, consistency.MethodInvalidation:
		s.resyncFetch(i)
	case consistency.MethodLease:
		s.renewLease(i, nil)
	case consistency.MethodRegime:
		if rc, err := consistency.NewRegimeController(consistency.RegimeConfig{}); err == nil {
			nd.rc = rc
		}
		nd.regime = consistency.RegimeTTL
		s.pollAttempt(i, 0)
		gen := nd.gen
		s.at(i, s.now(i)+s.cfg.ServerTTL, func() {
			if nd.down || nd.gen != gen {
				return
			}
			s.regimeEpoch(i)
		})
	case consistency.MethodSelfAdaptive:
		nd.auto = consistency.NewSelfAdaptive()
		s.pollAttempt(i, 0)
	case consistency.MethodAdaptiveTTL:
		if adapt, err := consistency.NewAdaptiveTTL(consistency.AdaptiveTTLConfig{
			MinTTL: s.cfg.UserTTL,
			MaxTTL: 4 * s.cfg.ServerTTL,
		}); err == nil {
			nd.adapt = adapt
		}
		s.pollAttempt(i, 0)
	default: // plain TTL (and broadcast's push-style star)
		s.pollAttempt(i, 0)
	}
}

// resyncFetch re-syncs a recovered push/invalidation-family node from its
// parent. Pushed updates only carry content published after the recovery,
// so the node must actively fetch what it missed; under Failover it keeps
// retrying every TTL until caught up.
func (s *simulation) resyncFetch(i int) {
	nd := s.nodes[i]
	gen := nd.gen
	s.triggerFetch(i, sim.Thunk, func() {
		if nd.down || nd.gen != gen || !nd.recovering || !s.cfg.Failover {
			return
		}
		s.at(i, s.now(i)+s.cfg.ServerTTL, func() {
			if nd.down || nd.gen != gen || !nd.recovering {
				return
			}
			s.resyncFetch(i)
		})
	}, 0)
}

// recoverProvider ends provider k's outage, releasing any dissemination
// deferred while it was dark.
func (s *simulation) recoverProvider(k int) {
	p := &s.prov[k]
	if !p.down {
		return
	}
	p.down = false
	if p.pendingDissem {
		p.pendingDissem = false
		s.disseminate(k)
	}
}

// schedulePublications advances the ground truth (node 0's version) at each
// publication time and hands the snapshot to the providers. A classic
// provider takes it in the publication event itself; a federated one after
// its own propagation delay, the only place a provider lags the ground
// truth. The publication schedule is static, so every non-provider cell
// advances its own published copy with a local marker event at the same
// instant — zero cross-cell traffic.
func (s *simulation) schedulePublications() {
	for _, u := range s.cfg.Updates {
		v := u.Snapshot
		at := s.publishAt[v]
		s.cells[0].eng.ScheduleAt(at, func(*sim.Engine) { //nolint:errcheck // at >= 0 by construction
			s.setVersion(s.nodes[0], v)
			s.cells[0].published = v
			if s.fed == nil {
				s.advance(0, v)
				return
			}
			now := s.now(0)
			for k := range s.prov {
				k := k
				s.at(0, now+s.prov[k].propagation, func() { s.advance(k, v) })
			}
		})
		for _, c := range s.cells[1:] {
			c := c
			c.eng.ScheduleAtCall(at, func() { c.published = v }) //nolint:errcheck // at >= 0 by construction
		}
	}
}

// advance moves provider k's servable version to v and disseminates it. A
// down provider still takes the content — the ground truth advances, its
// backend replicated it — but defers dissemination until its own recovery;
// updates published meanwhile aggregate into one deferred dissemination.
func (s *simulation) advance(k, v int) {
	p := &s.prov[k]
	if v > p.version {
		p.version = v
	}
	if p.down {
		p.pendingDissem = true
		return
	}
	s.disseminate(k)
}

// disseminate runs the configured method's reaction to provider k's current
// content, for the root-level servers homed at k.
func (s *simulation) disseminate(k int) {
	switch {
	case s.cfg.Infra == consistency.InfraBroadcast:
		s.broadcastUpdate()
	case s.cfg.Method == consistency.MethodLease:
		s.pushToLeaseholders()
	case s.cfg.Method == consistency.MethodRegime:
		s.regimePublish()
	case s.cfg.Method == consistency.MethodPush:
		s.pushToChildren(0, k)
	case s.cfg.Infra == consistency.InfraHybrid:
		// Push to supernode children; cluster-internal dissemination is
		// the configured method, driven by each supernode when its
		// content arrives.
		s.pushToSupernodeChildren(0, k)
		s.afterSourceUpdate(0, k)
	case s.cfg.Method == consistency.MethodInvalidation:
		s.invalidateChildren(0, k)
	case s.cfg.Method == consistency.MethodSelfAdaptive:
		s.notifySubscribers(0, k)
	}
}

// afterSourceUpdate handles method-specific follow-ups when an update source
// (provider k in unicast, supernode in hybrid) takes a new version.
func (s *simulation) afterSourceUpdate(src, k int) {
	switch s.cfg.Method {
	case consistency.MethodInvalidation:
		s.invalidateChildren(src, k)
	case consistency.MethodSelfAdaptive:
		s.notifySubscribers(src, k)
	}
}

// pushToChildren forwards the sender's current version to all tree children
// as update messages; receivers forward recursively (multicast) or are
// leaves (unicast). At the origin, provider k pushes to the children homed
// at it.
func (s *simulation) pushToChildren(from, k int) {
	v := s.served(from, k)
	for _, child := range s.tree.Children(from) {
		if from == 0 && s.nodes[child].prov != k {
			continue
		}
		s.deliverFunc(from, child, k, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, pushEvent, s, packPair(child, v))
	}
}

// pushEvent is a push's arrival; arg packs the child and the pushed
// version. A live child that is behind takes it and forwards it.
func pushEvent(_ *sim.Engine, recv any, arg int64) {
	s := recv.(*simulation)
	child, v := unpackPair(arg)
	nd := s.nodes[child]
	if nd.down || v <= nd.version {
		return
	}
	s.setVersion(nd, v)
	s.pushToChildren(child, 0)
}

// pushToSupernodeChildren pushes only to children that are supernodes (the
// hybrid provider/supernode relay path).
func (s *simulation) pushToSupernodeChildren(from, k int) {
	v := s.served(from, k)
	for _, child := range s.tree.Children(from) {
		if !s.nodes[child].isSupernode || (from == 0 && s.nodes[child].prov != k) {
			continue
		}
		s.deliverFunc(from, child, k, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, supernodePushEvent, s, packPair(child, v))
	}
}

// supernodePushEvent is pushEvent at a supernode, which forwards to its
// supernode children and then, as its cluster's update source, runs the
// cluster-internal method's reaction.
func supernodePushEvent(_ *sim.Engine, recv any, arg int64) {
	s := recv.(*simulation)
	child, v := unpackPair(arg)
	nd := s.nodes[child]
	if nd.down || v <= nd.version {
		return
	}
	s.setVersion(nd, v)
	s.pushToSupernodeChildren(child, 0)
	s.afterSourceUpdate(child, 0)
}

// invalidateChildren sends invalidation notices down the tree (light
// messages); an invalid node answers its children's fetches by first
// fetching from its own parent.
func (s *simulation) invalidateChildren(from, k int) {
	for _, child := range s.tree.Children(from) {
		if s.cfg.Infra == consistency.InfraHybrid && s.nodes[child].isSupernode {
			continue // supernodes receive pushed content instead
		}
		if from == 0 && s.nodes[child].prov != k {
			continue
		}
		s.deliverFunc(from, child, k, lightSizeKB, netmodel.ClassLight, invalidateEvent, s, int64(child))
	}
}

// invalidateEvent is an invalidation notice's arrival at child arg, which
// marks its content invalid and passes the notice on.
func invalidateEvent(_ *sim.Engine, recv any, arg int64) {
	s := recv.(*simulation)
	child := int(arg)
	nd := s.nodes[child]
	if nd.down {
		return
	}
	s.um.settle(child, false)
	nd.valid = false
	s.um.rearm(child)
	s.invalidateChildren(child, 0)
}

// notifySubscribers sends one aggregated invalidation notice to each
// self-adaptive subscriber that has not been notified since its switch; at
// the origin, provider k notifies the subscribers homed at it. The registry
// stays on the source node (node 0 for the origin). Iteration is in sorted
// order: send order feeds the uplink queue, so map order would leak
// nondeterminism into arrival times.
func (s *simulation) notifySubscribers(src, k int) {
	sn := s.nodes[src]
	for _, sub := range sortedKeys(sn.subscribers) {
		if sn.subscribers[sub] || (src == 0 && s.nodes[sub].prov != k) {
			continue
		}
		sn.subscribers[sub] = true
		s.deliverFunc(src, sub, k, lightSizeKB, netmodel.ClassLight, notifyEvent, s, int64(sub))
	}
}

// notifyEvent is an aggregated invalidation notice's arrival at subscriber
// arg.
func notifyEvent(_ *sim.Engine, recv any, arg int64) {
	s := recv.(*simulation)
	child := int(arg)
	nd := s.nodes[child]
	if nd.down {
		return
	}
	s.um.settle(child, false)
	nd.valid = false
	if nd.auto != nil {
		nd.auto.OnInvalidation()
	}
	s.um.rearm(child)
}

// nearestLive returns the node index of the nearest live server to loc, or
// -1 when no candidate is live. It backs user/cohort failover re-homing.
// Sharded runs restrict the search to near's cell — the regional catchment
// an anycast CDN fails over inside — both because a user's lifetime must
// stay in one cell and because another cell's down flags cannot be read
// mid-window. The cell filter comes before the down read for that reason.
func (s *simulation) nearestLive(near int, loc geo.Point) int {
	best, bestD := -1, 0.0
	for i := 1; i < len(s.nodes); i++ {
		if s.sharded() && s.cellOf[i] != s.cellOf[near] {
			continue
		}
		if s.nodes[i].down {
			continue
		}
		d := geo.DistanceKm(loc, s.locs[i])
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// sortedKeys returns a map's keys in ascending order, for deterministic
// send sequences.
func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
