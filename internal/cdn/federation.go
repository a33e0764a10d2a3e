package cdn

import (
	"strconv"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/netmodel"
)

// This file holds the multi-CDN federation runtime: N provider origins with
// distinct TTLs and propagation behavior behind the single ground-truth
// publisher (node 0), anycast-style nearest-provider homing, inter-CDN
// peering hand-off for servers whose home provider is down, a meta-CDN broker
// that durably re-homes servers with hysteresis and a minimum dwell time, and
// graceful serve-stale degradation when every provider is unreachable.
//
// Federation is serial-only (withDefaults rejects Shards > 0): provider
// selection, degradation intervals, and the broker all observe global state.
// When Config.Federation is nil, none of the code in this file runs and every
// classic code path executes unchanged — a fed==nil run is event-for-event
// identical to a build without this file.

// fedProvider is one federated CDN origin. Provider 0 reuses node 0's
// endpoint identity ("provider"), so the classic origin-traffic accounting
// (Accounting.BySender["provider"]) keeps meaning the primary origin; peers
// appear as "provider1", "provider2", ... in the per-sender ledger.
type fedProvider struct {
	ep  netmodel.Endpoint
	loc geo.Point
	// down marks an unreachable provider (fault-driven); version is the
	// newest snapshot this provider serves, which trails the ground truth by
	// its propagation delay.
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

// fedState is the federation runtime state. The cell counters
// (providerSwitches, peerHandoffs, degraded*) are the reported metrics; the
// ledger* copies and per-node arrays here are the auditor's independent
// second ledger — corrupt either side and checkFederation catches the split.
type fedState struct {
	prov []*fedProvider
	// home[i] is node i's current home provider (anycast nearest at setup,
	// durably re-homed by retry exhaustion and the broker). Index 0 unused.
	home []int
	// lastSwitch[i] is when node i last changed home (broker dwell gate).
	lastSwitch []time.Duration
	// degradedSince[i] is when node i entered all-providers-down degradation
	// (-1 when not degraded); degradedTotal[i] accumulates its closed
	// degradation intervals in seconds.
	degradedSince []time.Duration
	degradedTotal []float64

	ledgerSwitches int
	ledgerHandoffs int

	staleCap         time.Duration
	brokerPeriod     time.Duration
	brokerHysteresis float64
	brokerMinDwell   time.Duration
}

// newFedState builds the runtime from a validated spec. It draws no
// randomness: anycast homing is a pure function of server and provider
// locations, so federated runs share topology and user schedules with their
// classic counterparts.
func newFedState(s *simulation, spec *federation.Spec) *fedState {
	f := &fedState{
		staleCap: spec.StaleCap.D(),
	}
	if spec.Broker != nil {
		f.brokerPeriod = spec.Broker.Period.D()
		f.brokerHysteresis = spec.Broker.Hysteresis
		f.brokerMinDwell = spec.Broker.MinDwell.D()
	}
	for k, p := range spec.Providers {
		// Provider 0 is node 0 on the network: the same ID and Key, so one
		// ledger row and one uplink. The others take keys after the nodes'.
		id, key := "provider", s.nodes[0].ep.Key
		if k > 0 {
			id, key = "provider"+strconv.Itoa(k), len(s.nodes)+k
		}
		loc := geo.Point{Lat: p.Lat, Lon: p.Lon}
		f.prov = append(f.prov, &fedProvider{
			ep:          netmodel.Endpoint{ID: id, Key: key, Loc: loc, ISP: s.nodes[0].ep.ISP},
			loc:         loc,
			ttl:         p.TTL.D(),
			propagation: p.Propagation.D(),
		})
	}
	n := len(s.nodes)
	f.home = make([]int, n)
	f.lastSwitch = make([]time.Duration, n)
	f.degradedSince = make([]time.Duration, n)
	f.degradedTotal = make([]float64, n)
	for i := 1; i < n; i++ {
		f.home[i] = f.nearestProvider(s.locs[i], nil)
		f.degradedSince[i] = -1
	}
	f.degradedSince[0] = -1
	return f
}

// nearestProvider returns the provider nearest to loc, optionally restricted
// by the alive filter; -1 when the filter rejects everything. Ties break to
// the lower index, keeping the assignment deterministic.
func (f *fedState) nearestProvider(loc geo.Point, alive func(k int) bool) int {
	best, bestD := -1, 0.0
	for k, p := range f.prov {
		if alive != nil && !alive(k) {
			continue
		}
		d := geo.DistanceKm(loc, p.loc)
		if best == -1 || d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// nearestAlive is the anycast failover choice for node i: the nearest
// provider that is up, or -1 during an all-providers-down blackout.
func (f *fedState) nearestAlive(s *simulation, i int) int {
	return f.nearestProvider(s.locs[i], func(k int) bool { return !f.prov[k].down })
}

// fedTTL is node i's poll period: its home provider's TTL override, or the
// configured ServerTTL. With federation off it is exactly Config.ServerTTL.
func (s *simulation) fedTTL(i int) time.Duration {
	if s.fed != nil {
		if t := s.fed.prov[s.fed.home[i]].ttl; t > 0 {
			return t
		}
	}
	return s.cfg.ServerTTL
}

// fedRoute picks the provider answering node i's origin contact: the home
// provider when it is up; otherwise the nearest alive peer (an inter-CDN
// peering hand-off — transient, the home assignment is unchanged); otherwise
// the dead home itself, entering serve-stale degradation — the request still
// goes out and goes unanswered, exactly like a classic dark-provider poll.
func (s *simulation) fedRoute(i int) int {
	f := s.fed
	h := f.home[i]
	if !f.prov[h].down {
		return h
	}
	if k := f.nearestAlive(s, i); k >= 0 {
		s.cells[0].peerHandoffs++
		f.ledgerHandoffs++
		return k
	}
	s.fedEnterDegraded(i)
	return h
}

// fedRehome durably moves node i's home to provider k (retry exhaustion or a
// broker decision) and books the switch in both ledgers.
func (s *simulation) fedRehome(i, k int) {
	f := s.fed
	f.home[i] = k
	f.lastSwitch[i] = s.now(i)
	s.cells[0].providerSwitches++
	f.ledgerSwitches++
}

// fedEnterDegraded opens node i's degradation interval: it attempted an
// origin contact while every provider was down, and from here on serves its
// stale cached content (bounded by StaleCap).
func (s *simulation) fedEnterDegraded(i int) {
	f := s.fed
	if f.degradedSince[i] >= 0 {
		return
	}
	f.degradedSince[i] = s.now(i)
	s.cells[0].degradedEnters++
}

// fedExitDegraded closes node i's degradation interval on its first
// successful origin contact (or at the horizon, via fedCloseDegradation).
func (s *simulation) fedExitDegraded(i int) {
	f := s.fed
	since := f.degradedSince[i]
	if since < 0 {
		return
	}
	f.degradedSince[i] = -1
	secs := (s.now(i) - since).Seconds()
	f.degradedTotal[i] += secs
	c := s.cells[0]
	c.degradedExits++
	c.degradedSeconds += secs
}

// fedCloseDegradation closes every still-open degradation interval when the
// run drains, so degraded_seconds counts blackout time up to the horizon even
// for nodes that never saw a provider return.
func (s *simulation) fedCloseDegradation() {
	for i := range s.fed.degradedSince {
		if s.fed.degradedSince[i] >= 0 {
			s.fedExitDegraded(i)
		}
	}
}

// fedStaleDenied reports whether node i has been serving stale content under
// degradation for longer than the configured staleness cap, in which case
// visits fail rather than serve arbitrarily old content. StaleCap 0 means
// unlimited serve-stale (the default: no visit ever fails for staleness).
func (s *simulation) fedStaleDenied(i int) bool {
	f := s.fed
	if f == nil || f.staleCap <= 0 {
		return false
	}
	since := f.degradedSince[i]
	return since >= 0 && s.now(i)-since > f.staleCap
}

// fedDeliverUp sends a request from node i to provider k's endpoint, with
// the same bookkeeping as deliver (attempt/send/drop conservation); the
// arrival runs in cell 0 (federation is serial-only).
func (s *simulation) fedDeliverUp(i, k int, sizeKB float64, class netmodel.Class, onArrival func()) {
	c := s.cells[0]
	c.deliverAttempts++
	if !c.net.Reachable(s.nodes[i].ep, s.fed.prov[k].ep) {
		s.dropDelivery(i, "partition")
		return
	}
	c.deliverSends++
	arrival := c.net.Send(s.nodes[i].ep, s.fed.prov[k].ep, sizeKB, class, c.eng.Now())
	if class == netmodel.ClassLight {
		c.lightMsgs++
	}
	s.at(0, arrival, onArrival)
}

// fedDeliver sends a response or notification from provider k to node `to`,
// booking it under the provider's endpoint so per-provider load shows up in
// the per-sender traffic ledger.
func (s *simulation) fedDeliver(k, to int, sizeKB float64, class netmodel.Class, onArrival func()) {
	c := s.cells[0]
	c.deliverAttempts++
	if !c.net.Reachable(s.fed.prov[k].ep, s.nodes[to].ep) {
		s.dropDelivery(0, "partition")
		return
	}
	c.deliverSends++
	arrival := c.net.Send(s.fed.prov[k].ep, s.nodes[to].ep, sizeKB, class, c.eng.Now())
	switch class {
	case netmodel.ClassUpdate:
		c.updateMsgsToServers++
		c.updateMsgsFromProvider++
	case netmodel.ClassLight:
		c.lightMsgs++
	}
	s.at(to, arrival, onArrival)
}

// fedOriginExchange runs one request/response exchange between node i and
// the federation: route the request (peering hand-off if the home is down),
// and if the routed provider is still up at arrival, answer with its version
// from its endpoint. A provider that went dark in flight never answers — the
// requester's own timeout takes over, exactly like the classic outage path.
func (s *simulation) fedOriginExchange(i int, respKB float64, respClass netmodel.Class, onAnswer func(v, k int)) {
	k := s.fedRoute(i)
	s.fedDeliverUp(i, k, lightSizeKB, netmodel.ClassLight, func() {
		p := s.fed.prov[k]
		if p.down {
			return
		}
		v := p.version
		s.fedDeliver(k, i, respKB, respClass, func() { onAnswer(v, k) })
	})
}

// fedAdvance moves provider k's servable version to v (scheduled at the
// publication time plus k's propagation delay). A down provider still takes
// the content — its backend replicated it — but defers dissemination until
// its own recovery.
func (s *simulation) fedAdvance(k, v int) {
	p := s.fed.prov[k]
	if v > p.version {
		p.version = v
	}
	if p.down {
		p.pendingDissem = true
		return
	}
	s.fedDisseminate(k)
}

// fedProviderDown marks provider k unreachable.
func (s *simulation) fedProviderDown(k int) {
	s.fed.prov[k].down = true
}

// fedProviderUp recovers provider k, releasing any dissemination deferred
// while it was dark.
func (s *simulation) fedProviderUp(k int) {
	p := s.fed.prov[k]
	if !p.down {
		return
	}
	p.down = false
	if p.pendingDissem {
		p.pendingDissem = false
		s.fedDisseminate(k)
	}
}

// fedDisseminate runs the configured method's reaction to provider k's
// current content, for the root-level servers homed at k — the federated
// split of the classic disseminate().
func (s *simulation) fedDisseminate(k int) {
	switch {
	case s.cfg.Method == consistency.MethodPush:
		s.fedPushRoots(k)
	case s.cfg.Infra == consistency.InfraHybrid:
		s.fedPushRoots(k)
		switch s.cfg.Method {
		case consistency.MethodInvalidation:
			s.fedInvalidateRoots(k)
		case consistency.MethodSelfAdaptive:
			s.fedNotifySubscribers(k)
		}
	case s.cfg.Method == consistency.MethodInvalidation:
		s.fedInvalidateRoots(k)
	case s.cfg.Method == consistency.MethodSelfAdaptive:
		s.fedNotifySubscribers(k)
	}
}

// fedPushRoots pushes provider k's version to the root-level servers homed
// at k; below the root the classic relay paths take over unchanged.
func (s *simulation) fedPushRoots(k int) {
	v := s.fed.prov[k].version
	for _, c := range s.tree.Children(0) {
		child := c
		if s.fed.home[child] != k {
			continue
		}
		if s.cfg.Infra == consistency.InfraHybrid && !s.nodes[child].isSupernode {
			continue
		}
		s.fedDeliver(k, child, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, func() {
			nd := s.nodes[child]
			if nd.down || v <= nd.version {
				return
			}
			s.setVersion(nd, v)
			if s.cfg.Method == consistency.MethodPush {
				s.pushToChildren(child)
				return
			}
			// Hybrid supernode relay: push on to supernode children, then run
			// the cluster-internal method's reaction.
			s.pushToSupernodeChildren(child)
			s.afterSourceUpdate(nd)
		})
	}
}

// fedInvalidateRoots sends invalidation notices from provider k to its
// root-level servers; the notices relay down the tree classically.
func (s *simulation) fedInvalidateRoots(k int) {
	for _, c := range s.tree.Children(0) {
		child := c
		if s.fed.home[child] != k {
			continue
		}
		if s.cfg.Infra == consistency.InfraHybrid && s.nodes[child].isSupernode {
			continue
		}
		s.fedDeliver(k, child, lightSizeKB, netmodel.ClassLight, func() {
			nd := s.nodes[child]
			if nd.down {
				return
			}
			nd.valid = false
			s.invalidateChildren(child)
		})
	}
}

// fedNotifySubscribers sends one aggregated invalidation notice from
// provider k to each not-yet-notified self-adaptive subscriber homed at k.
// The subscriber registry stays on node 0 (the logical origin); only the
// answering endpoint federates.
func (s *simulation) fedNotifySubscribers(k int) {
	src := s.nodes[0]
	for _, sub := range sortedKeys(src.subscribers) {
		if src.subscribers[sub] || s.fed.home[sub] != k {
			continue
		}
		src.subscribers[sub] = true
		child := sub
		s.fedDeliver(k, child, lightSizeKB, netmodel.ClassLight, func() {
			nd := s.nodes[child]
			if nd.down {
				return
			}
			nd.valid = false
			if nd.auto != nil {
				nd.auto.OnInvalidation()
			}
		})
	}
}

// fedBrokerTick is one meta-CDN broker pass: every server whose home
// provider is down moves to the nearest alive one, and a server parked on a
// distant backup moves back only when a provider at least (1+hysteresis)
// times closer is alive — with a minimum dwell between any two switches.
// Hysteresis plus dwell is what keeps a flapping provider from dragging its
// servers back and forth every cycle. The pass draws no randomness and
// iterates servers in index order, so broker decisions are deterministic.
func (s *simulation) fedBrokerTick() {
	f := s.fed
	now := s.now(0)
	for i := 1; i < len(s.nodes); i++ {
		cur := f.home[i]
		best := f.nearestAlive(s, i)
		if best < 0 || best == cur {
			continue
		}
		if now-f.lastSwitch[i] < f.brokerMinDwell {
			continue
		}
		if f.prov[cur].down {
			s.fedRehome(i, best)
			continue
		}
		dBest := geo.DistanceKm(s.locs[i], f.prov[best].loc)
		dCur := geo.DistanceKm(s.locs[i], f.prov[cur].loc)
		if dBest*(1+f.brokerHysteresis) < dCur {
			s.fedRehome(i, best)
		}
	}
}
