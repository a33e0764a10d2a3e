package cdn

import (
	"strconv"
	"time"

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
// The origin itself is not federation code: every run keeps its origins in
// the provider table (simulation.prov, see sim.go), and a classic run is the
// one-provider case. What lives here is what only a federated run does:
// sender-side routing (peering hand-off, serve-stale degradation, re-homing,
// the stale cap), the broker, and the publication fan-out that lets each
// provider lag the ground truth. Federation is serial-only (withDefaults
// rejects Shards > 0): provider selection, degradation intervals, and the
// broker all observe global state. When Config.Federation is nil, s.fed is
// nil: route answers provider 0 without reading provider state, and each
// fed* function does nothing or never runs.

// ProviderSender returns provider k's sender ID in the per-sender traffic
// ledger (Accounting.BySender). Provider 0 is node 0, the classic origin,
// and keeps its ID "provider"; federated peers are "provider1",
// "provider2", ...
func ProviderSender(k int) string {
	if k == 0 {
		return "provider"
	}
	return "provider" + strconv.Itoa(k)
}

// fedState is the federation runtime state. The cell counters
// (providerSwitches, peerHandoffs, degraded*) are the reported metrics; the
// ledger* copies and per-node arrays here are the auditor's independent
// second ledger — corrupt either side and checkFederation catches the split.
type fedState struct {
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

// newFedState fills the provider table from a validated spec and builds the
// runtime. It draws no randomness: anycast homing is a pure function of
// server and provider locations, so federated runs share topology and user
// schedules with their classic counterparts.
func newFedState(s *simulation, spec *federation.Spec) *fedState {
	f := &fedState{
		staleCap: spec.StaleCap.D(),
	}
	if spec.Broker != nil {
		f.brokerPeriod = spec.Broker.Period.D()
		f.brokerHysteresis = spec.Broker.Hysteresis
		f.brokerMinDwell = spec.Broker.MinDwell.D()
	}
	s.prov = make([]provider, len(spec.Providers))
	for k, p := range spec.Providers {
		// Provider 0 is node 0 on the network: the same ID and Key, so one
		// ledger row and one uplink. The others take keys after the nodes'.
		key := s.nodes[0].ep.Key
		if k > 0 {
			key = len(s.nodes) + k
		}
		loc := geo.Point{Lat: p.Lat, Lon: p.Lon}
		s.prov[k] = provider{
			ep:          netmodel.Endpoint{ID: ProviderSender(k), Key: key, Loc: loc, ISP: s.nodes[0].ep.ISP},
			ttl:         p.TTL.D(),
			propagation: p.Propagation.D(),
		}
	}
	n := len(s.nodes)
	f.lastSwitch = make([]time.Duration, n)
	f.degradedSince = make([]time.Duration, n)
	f.degradedTotal = make([]float64, n)
	for i := 1; i < n; i++ {
		s.nodes[i].prov = nearestProvider(s.prov, s.locs[i], nil)
		f.degradedSince[i] = -1
	}
	f.degradedSince[0] = -1
	return f
}

// nearestProvider returns the provider nearest to loc, optionally restricted
// by the alive filter; -1 when the filter rejects everything. Ties break to
// the lower index, keeping the assignment deterministic.
func nearestProvider(prov []provider, loc geo.Point, alive func(k int) bool) int {
	best, bestD := -1, 0.0
	for k := range prov {
		if alive != nil && !alive(k) {
			continue
		}
		d := geo.DistanceKm(loc, prov[k].ep.Loc)
		if best == -1 || d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// nearestAlive is the anycast failover choice for node i: the nearest
// provider that is up, or -1 during an all-providers-down blackout.
func (s *simulation) nearestAlive(i int) int {
	return nearestProvider(s.prov, s.locs[i], func(k int) bool { return !s.prov[k].down })
}

// route picks the provider k that carries node i's contact with its parent
// p. Only an origin contact (p == 0) routes, and a classic run always reaches
// its one provider. A federated run goes to the home provider when it is up;
// otherwise to the nearest alive peer (an inter-CDN peering hand-off —
// transient, the home assignment is unchanged); otherwise to the dead home
// itself, entering serve-stale degradation — the request still goes out and
// goes unanswered, exactly like a classic dark-provider poll.
func (s *simulation) route(i, p int) int {
	if p != 0 || s.fed == nil {
		return 0
	}
	f := s.fed
	h := s.nodes[i].prov
	if !s.prov[h].down {
		return h
	}
	if k := s.nearestAlive(i); k >= 0 {
		s.cells[0].peerHandoffs++
		f.ledgerHandoffs++
		return k
	}
	s.fedEnterDegraded(i)
	return h
}

// fedRehomeOffDark durably re-homes node i when its origin stopped answering
// through a whole retry cycle: the anycast analogue of reparenting off a dead
// relay. During a full blackout there is nowhere to go — serve-stale rides it
// out. A classic run has one provider and nothing to re-home to.
func (s *simulation) fedRehomeOffDark(i int) {
	if s.fed == nil {
		return
	}
	if h := s.nodes[i].prov; s.prov[h].down {
		if k := s.nearestAlive(i); k >= 0 && k != h {
			s.fedRehome(i, k)
		}
	}
}

// fedRehome durably moves node i's home to provider k (retry exhaustion or a
// broker decision) and books the switch in both ledgers.
func (s *simulation) fedRehome(i, k int) {
	f := s.fed
	s.nodes[i].prov = k
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
// successful origin contact (or at the horizon, via fedCloseDegradation). A
// classic run never degrades.
func (s *simulation) fedExitDegraded(i int) {
	f := s.fed
	if f == nil {
		return
	}
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
		cur := s.nodes[i].prov
		best := s.nearestAlive(i)
		if best < 0 || best == cur {
			continue
		}
		if now-f.lastSwitch[i] < f.brokerMinDwell {
			continue
		}
		if s.prov[cur].down {
			s.fedRehome(i, best)
			continue
		}
		dBest := geo.DistanceKm(s.locs[i], s.prov[best].ep.Loc)
		dCur := geo.DistanceKm(s.locs[i], s.prov[cur].ep.Loc)
		if dBest*(1+f.brokerHysteresis) < dCur {
			s.fedRehome(i, best)
		}
	}
}

// fedHoldsDark reports whether a visit poll to parent p must leave a dark
// answerer to the requester's own timeout rather than take the serial fast
// path: true for a federated origin, whose requesters ride an outage on
// serve-stale degradation once routing had no live provider to offer.
func (s *simulation) fedHoldsDark(p int) bool {
	return p == 0 && s.fed != nil
}
