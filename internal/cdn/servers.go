package cdn

import (
	"fmt"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/overlay"
	"cdnconsistency/internal/sim"
)

// pollMaxAttempts is how many consecutive poll timeouts a server tolerates
// before (under Failover) concluding its parent is dead and failing over.
const pollMaxAttempts = 3

// scheduleServerLoops starts the poll loops of every polling node. Under
// Push and Invalidation nothing polls; under the hybrid infrastructure
// supernodes receive pushes and never poll.
func (s *simulation) scheduleServerLoops() error {
	switch s.cfg.Method {
	case consistency.MethodPush, consistency.MethodInvalidation:
		return nil
	case consistency.MethodLease:
		s.scheduleLeaseLoops()
		return nil
	case consistency.MethodRegime:
		return s.scheduleRegimeLoops()
	}
	for _, nd := range s.nodes[1:] {
		if s.cfg.Infra == consistency.InfraHybrid && nd.isSupernode {
			continue
		}
		switch s.cfg.Method {
		case consistency.MethodSelfAdaptive:
			nd.auto = consistency.NewSelfAdaptive()
		case consistency.MethodAdaptiveTTL:
			adapt, err := consistency.NewAdaptiveTTL(consistency.AdaptiveTTLConfig{
				MinTTL: s.cfg.UserTTL,
				MaxTTL: 4 * s.cfg.ServerTTL,
			})
			if err != nil {
				return fmt.Errorf("cdn: adaptive TTL for server %d: %w", nd.idx, err)
			}
			nd.adapt = adapt
		}
		// Stagger first polls uniformly over one TTL, as TTL caches do.
		i := nd.idx
		offset := time.Duration(s.rng(i).Int63n(int64(s.cfg.ServerTTL)))
		s.at(i, offset, func() { s.pollParent(i) })
	}
	return nil
}

// pollParent starts one TTL-family poll cycle: a light request up the tree,
// an update-class response down carrying the parent's current content. A
// dead, partitioned or dark parent never answers; the poller times out and
// retries with exponential backoff, and under Failover eventually reparents
// away from a dead relay.
func (s *simulation) pollParent(i int) { s.pollAttempt(i, 0) }

// pollRec is one in-flight poll: poller i asked parent p, through provider
// k, at generation gen and retry attempt. A recovered node starts a new poll
// while its pre-crash polls may still be in flight, so each poll keeps its
// own record, and a stale request is still answered and accounted with its
// own parent and provider. answered is set by the accepted response or by
// the timeout, whichever comes first; the other then does nothing, and an
// accepted response cancels the timeout, so a fault-free poll leaves no
// no-op event behind.
//
// The poll's events carry the record as their receiver, so they allocate
// nothing, and the sharded barrier exchange carries the record pointer as it
// is. refs counts them while pending; the last one to finish returns the
// record to the free list. A sharded run recycles records too: one
// goroutine runs every window, the poller's cell and the origin's in turn,
// so a reference count shared across cells is exact.
type pollRec struct {
	s        *simulation
	i, p, k  int
	gen      int
	attempt  int
	answered bool
	refs     int
	timeout  sim.Timer
}

// newPoll returns a cleared record for a poll by node i, recycled when one
// is free.
func (s *simulation) newPoll(i, p, k, gen, attempt int) *pollRec {
	var r *pollRec
	if n := len(s.pollFree); n > 0 {
		r = s.pollFree[n-1]
		s.pollFree = s.pollFree[:n-1]
	} else {
		r = &pollRec{s: s}
	}
	r.i, r.p, r.k, r.gen, r.attempt = i, p, k, gen, attempt
	r.answered = false
	return r
}

// releasePoll ends one of r's pending events; after the last, r goes back
// to the free list.
func (s *simulation) releasePoll(r *pollRec) {
	if r.refs--; r.refs == 0 {
		s.pollFree = append(s.pollFree, r)
	}
}

// sendPoll delivers one leg of poll r; the arrival holds a reference to r.
func (s *simulation) sendPoll(from, to int, r *pollRec, sizeKB float64, class netmodel.Class, fn sim.FuncHandler, arg int64) {
	if s.deliverFunc(from, to, r.k, sizeKB, class, fn, r, arg) {
		r.refs++
	}
}

func (s *simulation) pollAttempt(i, attempt int) {
	nd := s.nodes[i]
	if nd.down {
		return // a crashed server's poll loop ends
	}
	p := s.tree.Parent(i)
	if p == overlay.NoParent {
		return // orphaned by a failed repair: nothing to poll
	}
	r := s.newPoll(i, p, s.route(i, p), nd.gen, attempt)
	s.sendPoll(i, p, r, lightSizeKB, netmodel.ClassLight, pollRequestEvent, 0)
	r.timeout, _ = s.cell(i).eng.ScheduleAtFunc(s.now(i)+s.cfg.ServerTTL, pollTimeoutEvent, r, 0)
	r.refs++
}

// pollRequestEvent is a poll request's arrival at the parent: unless the
// parent is dark, it answers with the version it serves, which rides the
// response's arg.
func pollRequestEvent(_ *sim.Engine, recv any, _ int64) {
	r := recv.(*pollRec)
	s := r.s
	if !s.dark(r.p, r.k) { // else no answer; the poller's timeout takes over
		s.sendPoll(r.p, r.i, r, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, pollResponseEvent, int64(s.served(r.p, r.k)))
	}
	s.releasePoll(r)
}

// pollResponseEvent is a poll response's arrival at the poller, carrying
// version v. The first of response and timeout settles the poll; an
// accepted response cancels the timeout.
func pollResponseEvent(_ *sim.Engine, recv any, v int64) {
	r := recv.(*pollRec)
	s := r.s
	i, p := r.i, r.p
	nd := s.nodes[i]
	accepted := !r.answered && !nd.down && nd.gen == r.gen
	if accepted {
		r.answered = true
		s.cell(i).eng.Cancel(r.timeout)
		s.releasePoll(r) // the timeout's reference
	}
	s.releasePoll(r)
	if !accepted {
		return
	}
	if p == 0 {
		s.fedExitDegraded(i)
	}
	s.onPollResponse(i, p, int(v))
}

// pollTimeoutEvent fires one TTL after a poll that no accepted response
// settled, and retries it.
func pollTimeoutEvent(_ *sim.Engine, recv any, _ int64) {
	r := recv.(*pollRec)
	s := r.s
	i, p, attempt := r.i, r.p, r.attempt
	nd := s.nodes[i]
	retry := !r.answered && !nd.down && nd.gen == r.gen
	if retry {
		r.answered = true // a later response finds the poll settled
	}
	s.releasePoll(r)
	if retry {
		s.pollRetry(i, p, attempt+1)
	}
}

// pollRetry handles a timed-out poll against parent p: bounded retries with
// exponential backoff and jitter; once the retry budget is spent, a Failover
// node whose relay parent is dead moves itself (and the whole orphan group
// under that relay) to the nearest live node and starts a fresh cycle.
func (s *simulation) pollRetry(i, p, attempt int) {
	nd := s.nodes[i]
	if s.cfg.Failover && attempt >= pollMaxAttempts {
		if p == 0 {
			s.fedRehomeOffDark(i)
		} else if s.nodes[p].down && s.cfg.Infra == consistency.InfraMulticast && s.tree.Parent(i) == p {
			if err := s.tree.Remove(p, s.locs, s.cfg.TreeDegree, s.alive); err == nil {
				s.cell(i).serverReparents++
			}
			if s.aud != nil {
				s.aud.onTreeMutation(i, fmt.Sprintf("pollRetry reparent of %d off dead relay %d", i, p))
			}
		}
		attempt = 0 // fresh cycle against the (possibly new) parent
	}
	backoff := s.pollBackoff(i, attempt)
	// Every attempt from pollMaxAttempts on retries alike, so the packed
	// attempt stops there.
	arg := packPollResume(i, nd.gen, min(attempt, pollMaxAttempts))
	s.cell(i).eng.ScheduleAtFunc(s.now(i)+backoff, pollResumeEvent, s, arg) //nolint:errcheck // backoff > 0
}

// pollBackoff maps the retry attempt to its wait: one TTL, two, then capped
// at four, plus jitter to desynchronise the retry storm when a fault clears.
// Jitter is drawn only on the retry path, so healthy runs consume no extra
// randomness.
func (s *simulation) pollBackoff(i, attempt int) time.Duration {
	d := s.cfg.ServerTTL
	switch {
	case attempt >= 3:
		d = 4 * s.cfg.ServerTTL
	case attempt == 2:
		d = 2 * s.cfg.ServerTTL
	}
	return d + time.Duration(s.rng(i).Int63n(int64(s.cfg.ServerTTL)/4+1))
}

// pollAfter resumes a node's poll loop after d, unless the node crashed or
// recovered (generation change) in the meantime — recovery starts its own
// fresh loop. Like every event of the poll cycle, the resume is scheduled
// closure-free, so a fault-free poll cycle allocates nothing.
func (s *simulation) pollAfter(i int, d time.Duration) {
	s.cell(i).eng.ScheduleAfterFunc(d, pollResumeEvent, s, packPollResume(i, s.nodes[i].gen, 0))
}

// packPollResume packs a node index (below 2^28), its generation and a retry
// attempt (below 8) into one scheduling argument for pollResumeEvent.
func packPollResume(i, gen, attempt int) int64 {
	return int64(attempt)<<60 | int64(i)<<32 | int64(uint32(gen))
}

func unpackPollResume(a int64) (i, gen, attempt int) {
	return int(a>>32) & (1<<28 - 1), int(uint32(a)), int(a >> 60)
}

// packPair packs two values, each in [0, 2^32), into one scheduling
// argument: a node and a version, a generation and a fetch sequence number,
// or a cohort and a node.
func packPair(hi, lo int) int64 {
	return int64(hi)<<32 | int64(uint32(lo))
}

func unpackPair(a int64) (hi, lo int) {
	return int(uint32(a >> 32)), int(uint32(a))
}

// pollResumeEvent resumes a node's TTL poll loop at a retry attempt, unless
// the node crashed or recovered (generation change) since the resume was
// armed; arg packs the node, the generation at arming time and the attempt.
func pollResumeEvent(_ *sim.Engine, recv any, arg int64) {
	s := recv.(*simulation)
	i, gen, attempt := unpackPollResume(arg)
	nd := s.nodes[i]
	if nd.down || nd.gen != gen {
		return
	}
	s.pollAttempt(i, attempt)
}

// armWatchdog starts the subscription watchdog on a node whose poll loop is
// paused because it relies on notifications from its feed (push/invalidation
// regime, self-adaptive subscription). A registration dropped by a partition,
// a dark provider, or a dead supernode would otherwise leave the node serving
// stale content silently, believing itself subscribed. Every two TTLs the
// watchdog heartbeats the feed: no answer within one TTL, or an answer
// revealing newer content the node was never told about, reverts it to TTL
// polling. Failover only.
func (s *simulation) armWatchdog(i int) {
	if !s.cfg.Failover {
		return
	}
	nd := s.nodes[i]
	if nd.watchdogArmed {
		return
	}
	nd.watchdogArmed = true
	gen := nd.gen
	var tick func()
	tick = func() {
		if nd.down || nd.gen != gen || !nd.pollStopped {
			nd.watchdogArmed = false
			return
		}
		p := s.tree.Parent(i)
		if p == overlay.NoParent {
			nd.watchdogArmed = false
			return
		}
		answered := false
		heartbeat := func(v int) {
			if answered || nd.down || nd.gen != gen {
				return
			}
			answered = true
			if p == 0 {
				s.fedExitDegraded(i)
			}
			if !nd.pollStopped {
				nd.watchdogArmed = false
				return
			}
			if v > nd.version && nd.valid {
				// The feed moved on without notifying us: the
				// registration was lost somewhere en route.
				s.ttlFallback(i)
				return
			}
			s.at(i, s.now(i)+2*s.cfg.ServerTTL, tick)
		}
		k := s.route(i, p)
		s.deliverVia(i, p, k, lightSizeKB, netmodel.ClassLight, func() {
			if s.dark(p, k) {
				return // no answer; the heartbeat timeout concludes
			}
			v := s.served(p, k)
			s.deliverVia(p, i, k, lightSizeKB, netmodel.ClassLight, func() { heartbeat(v) })
		})
		s.at(i, s.now(i)+s.cfg.ServerTTL, func() {
			if answered || nd.down || nd.gen != gen {
				return
			}
			answered = true
			if !nd.pollStopped {
				nd.watchdogArmed = false
				return
			}
			s.ttlFallback(i)
		})
	}
	s.at(i, s.now(i)+2*s.cfg.ServerTTL, tick)
}

// ttlFallback reverts a notification-dependent node to TTL polling after its
// watchdog concluded the feed is dead, dark, or no longer aware of it.
func (s *simulation) ttlFallback(i int) {
	nd := s.nodes[i]
	nd.pollStopped = false
	nd.watchdogArmed = false
	s.cell(i).ttlFallbacks++
	if nd.auto != nil {
		nd.auto = consistency.NewSelfAdaptive()
	}
	if s.cfg.Method == consistency.MethodRegime {
		nd.regime = consistency.RegimeTTL
	}
	s.pollAttempt(i, 0)
}

func (s *simulation) onPollResponse(i, p, v int) {
	nd := s.nodes[i]
	if nd.down {
		return
	}
	hadUpdate := v > nd.version
	s.setVersion(nd, v)
	nd.valid = true

	switch s.cfg.Method {
	case consistency.MethodSelfAdaptive:
		notify, err := nd.auto.OnPollResult(hadUpdate)
		if err != nil {
			// A poll response raced a mode switch; drop it.
			return
		}
		if notify {
			// Switch to Invalidation (Algorithm 1 line 8): register
			// with the parent and pause the poll loop. The child's version
			// rides the registration message (a sharded run cannot read it
			// at the parent); a serial run reads it at arrival, exactly as
			// it always did.
			nd.pollStopped = true
			s.armWatchdog(i)
			childV := nd.version
			k := s.route(i, p)
			s.deliverVia(i, p, k, lightSizeKB, netmodel.ClassLight, func() {
				if s.dark(p, k) {
					return // subscription lost; the watchdog (or the
					// next visit poll) recovers the node
				}
				v := childV
				if !s.sharded() {
					v = s.nodes[i].version
				}
				s.subscribe(p, i, v)
			})
			return
		}
		s.pollAfter(i, s.pollTTL(i))
	case consistency.MethodAdaptiveTTL:
		now := s.now(i)
		if hadUpdate {
			nd.adapt.ObserveUpdate(now)
		} else {
			nd.adapt.ObserveMiss()
		}
		s.pollAfter(i, nd.adapt.NextTTL())
	case consistency.MethodRegime:
		if hadUpdate && nd.rc != nil {
			nd.rc.ObserveUpdate(s.now(i))
		}
		// Keep polling only while still in the TTL regime.
		if nd.regime == consistency.RegimeTTL && !nd.pollStopped {
			s.pollAfter(i, s.cfg.ServerTTL)
		}
	default: // plain TTL
		s.pollAfter(i, s.pollTTL(i))
	}
}

// subscribe registers child as an Invalidation-mode subscriber at a source
// node (the origin or a supernode). childV is the child's version as known
// to the registration (read at arrival in serial runs, carried on the
// message in sharded ones).
func (s *simulation) subscribe(src, child, childV int) {
	nd := s.nodes[src]
	if nd.subscribers == nil {
		nd.subscribers = make(map[int]bool)
	}
	nd.subscribers[child] = false
	// If the source already has newer content than the child could have
	// seen, notify immediately rather than waiting for the next publish —
	// handles an update racing the subscription. At the origin the
	// comparison is against the child's home provider, whose servable
	// version may trail the ground truth.
	if k := s.nodes[child].prov; !s.dark(src, k) && s.served(src, k) > childV {
		s.notifySubscribers(src, k)
	}
}

// triggerFetch starts (or joins) a fetch of fresh content from i's parent,
// used by the Invalidation method. fn(e, recv, arg), unless fn is nil, runs
// when the content arrives or the fetch fails; a closure goes as
// (sim.Thunk, f, 0).
//
// Every event of the exchange carries the requesting node as its receiver,
// so a fetch allocates nothing: the request's arrival at the parent, the
// response's arrival back, and the timeout one TTL after the request. The
// fetch keeps its timeout's timer on the node, and completion or failure
// cancels it, so a fetch that ends before its timeout leaves no no-op event.
func (s *simulation) triggerFetch(i int, fn sim.FuncHandler, recv any, arg int64) {
	nd := s.nodes[i]
	if fn != nil {
		nd.fetchCallbacks = append(nd.fetchCallbacks, fetchCallback{fn, recv, arg})
	}
	if nd.fetchInFlight {
		return
	}
	nd.fetchInFlight = true
	p := s.tree.Parent(i)
	if p == overlay.NoParent {
		// Orphaned by a failed repair: no upstream; serve what we hold.
		s.failFetch(i)
		return
	}
	nd.fetchSeq++
	if p == 0 {
		k := s.route(i, p)
		s.deliverFunc(i, p, k, lightSizeKB, netmodel.ClassLight, answerFetchEvent, nd, int64(k))
	} else {
		s.deliverFunc(i, p, 0, lightSizeKB, netmodel.ClassLight, serveFetchEvent, nd, int64(p))
	}
	nd.fetchTimer, _ = s.cell(i).eng.ScheduleAtFunc(s.now(i)+s.cfg.ServerTTL, fetchTimeoutEvent, nd, packPair(nd.gen, nd.fetchSeq))
}

// answerFetchEvent is a fetch request's arrival at the origin from node
// recv; provider arg answers it.
func answerFetchEvent(_ *sim.Engine, recv any, k int64) {
	nd := recv.(*node)
	nd.s.answerFetch(int(k), nd.idx)
}

// serveFetchEvent is a fetch request's arrival at relay arg from node recv.
func serveFetchEvent(_ *sim.Engine, recv any, p int64) {
	nd := recv.(*node)
	nd.s.serveFetch(int(p), nd.idx)
}

// originFetchResponseEvent is the origin's answer to node recv's fetch,
// carrying version v.
func originFetchResponseEvent(_ *sim.Engine, recv any, v int64) {
	nd := recv.(*node)
	nd.s.fedExitDegraded(nd.idx)
	nd.s.completeFetch(nd.idx, int(v))
}

// relayFetchResponseEvent is a relay's answer to node recv's fetch, carrying
// version v.
func relayFetchResponseEvent(_ *sim.Engine, recv any, v int64) {
	nd := recv.(*node)
	nd.s.completeFetch(nd.idx, int(v))
}

// fetchTimeoutEvent fires one TTL after node recv's fetch went out, unless
// the fetch ended first; arg packs the generation and fetch sequence number
// it was armed under.
func fetchTimeoutEvent(_ *sim.Engine, recv any, arg int64) {
	nd := recv.(*node)
	gen, seq := unpackPair(arg)
	if nd.down || nd.gen != gen || nd.fetchSeq != seq || !nd.fetchInFlight {
		return
	}
	// The fetch went dark (partitioned link or provider outage): serve the
	// stale local content to whoever is waiting.
	nd.s.failFetch(nd.idx)
}

// answerFetch answers child's fetch at the origin: provider k serves its
// version. A dark provider never answers: the child's fetch timeout serves
// its stale content.
func (s *simulation) answerFetch(k, child int) {
	if s.prov[k].down {
		return
	}
	if s.cfg.Method == consistency.MethodRegime {
		// Re-arm the aggregated invalidation for this subscriber.
		subs := s.nodes[0].subscribers
		if _, ok := subs[child]; ok {
			subs[child] = false
		}
	}
	v := s.prov[k].version
	s.deliverFunc(0, child, k, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, originFetchResponseEvent, s.nodes[child], int64(v))
}

// serveFetch answers child's fetch at relay p. An invalid relay first
// refreshes itself from its own parent (chained fetch along the multicast
// tree). A dead relay never answers: the child's fetch fails and its
// callbacks observe the stale content it still holds.
func (s *simulation) serveFetch(p, child int) {
	pn := s.nodes[p]
	if pn.down {
		s.failFetch(child)
		return
	}
	if pn.valid {
		s.deliverFunc(p, child, 0, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, relayFetchResponseEvent, s.nodes[child], int64(pn.version))
		return
	}
	pn.waiters = append(pn.waiters, child)
	s.triggerFetch(p, nil, nil, 0)
}

func (s *simulation) completeFetch(i, v int) {
	nd := s.nodes[i]
	nd.fetchInFlight = false
	s.cell(i).eng.Cancel(nd.fetchTimer)
	if nd.down {
		return
	}
	s.setVersion(nd, v)
	nd.valid = true
	waiters := nd.waiters
	nd.waiters = nil
	for _, c := range waiters {
		s.serveFetch(i, c)
	}
	s.runFetchCallbacks(i)
}

// failFetch aborts a fetch whose upstream died: pending callbacks fire
// against the stale local content, and waiting children fail in turn.
func (s *simulation) failFetch(i int) {
	nd := s.nodes[i]
	nd.fetchInFlight = false
	s.cell(i).eng.Cancel(nd.fetchTimer)
	waiters := nd.waiters
	nd.waiters = nil
	for _, c := range waiters {
		s.failFetch(c)
	}
	s.runFetchCallbacks(i)
}

// fetchCallback is one continuation deferred to the end of a fetch or lease
// renewal: fn(e, recv, arg), in closure-free form.
type fetchCallback struct {
	fn   sim.FuncHandler
	recv any
	arg  int64
}

// runFetchCallbacks runs node i's deferred callbacks in the order they were
// added, and empties the list. A callback that joins a new operation of the
// node adds to a fresh list; otherwise the list's spine is kept for the
// next one.
func (s *simulation) runFetchCallbacks(i int) {
	nd := s.nodes[i]
	cbs := nd.fetchCallbacks
	nd.fetchCallbacks = nil
	eng := s.cell(i).eng
	for _, cb := range cbs {
		cb.fn(eng, cb.recv, cb.arg)
	}
	if nd.fetchCallbacks == nil {
		clear(cbs)
		nd.fetchCallbacks = cbs[:0]
	}
}

// selfAdaptiveVisitPoll is the Algorithm 1 lines 10-13 path: the first visit
// after an invalidation polls the parent, notifies the switch back to TTL,
// and resumes the poll loop. onDone fires when the fresh content is in.
func (s *simulation) selfAdaptiveVisitPoll(i int, onDone func()) {
	nd := s.nodes[i]
	p := s.tree.Parent(i)
	gen := nd.gen
	answered := false
	// The automaton already switched back to TTL mode; whatever happens to
	// this poll, the loop must resume and the visitor must be served (with
	// stale content if the source is unreachable).
	resume := func() {
		if nd.pollStopped {
			nd.pollStopped = false
			s.pollAfter(i, s.pollTTL(i))
		}
		if onDone != nil {
			onDone()
		}
	}
	if p == overlay.NoParent {
		resume()
		return
	}
	k := s.route(i, p)
	// The serial fast path reads the requester's state at the parent. A
	// sharded run must not (another cell's state mid-window), and a request
	// that reaches a dark federated origin — a blackout, or a provider lost in
	// flight — is left to the requester's timeout, where serve-stale
	// degradation takes over. Both rely on the response-side and timeout
	// guards at i instead.
	fast := !s.sharded() && !s.fedHoldsDark(p)
	s.deliverVia(i, p, k, lightSizeKB, netmodel.ClassLight, func() {
		if fast && (answered || nd.down || nd.gen != gen) {
			return
		}
		if s.dark(p, k) {
			if !fast {
				// No answer crosses back; the timeout at i serves the
				// stale content and resumes the loop.
				return
			}
			// The source died or went dark: serve the stale content and
			// resume the poll loop.
			answered = true
			resume()
			return
		}
		v := s.served(p, k)
		s.deliverVia(p, i, k, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, func() {
			if answered || nd.down || nd.gen != gen {
				return
			}
			answered = true
			if p == 0 {
				s.fedExitDegraded(i)
			}
			s.setVersion(nd, v)
			nd.valid = true
			// Notify the switch back (Algorithm 1 line 12); the registry
			// lives on the parent (node 0 for the origin), the provider that
			// answered carries the notice.
			s.deliverVia(i, p, k, lightSizeKB, netmodel.ClassLight, func() { delete(s.nodes[p].subscribers, i) })
			resume()
		})
	})
	s.at(i, s.now(i)+s.cfg.ServerTTL, func() {
		if answered || nd.down || nd.gen != gen {
			return
		}
		// Request or response lost to a partition: serve stale, resume.
		answered = true
		resume()
	})
}
