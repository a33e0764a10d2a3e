package cdn

import (
	"fmt"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/netmodel"
)

// MethodRegime: each server runs a consistency.RegimeController fed by its
// own visit stream and observed update arrivals, re-deciding its regime
// every control epoch (one server TTL) and registering the choice with the
// provider:
//
//	RegimePush:         the provider pushes every update to the server.
//	RegimeInvalidation: the provider sends one aggregated invalidation;
//	                    the next visit fetches and re-arms it.
//	RegimeTTL:          the server polls on its TTL.

// scheduleRegimeLoops starts each server in the TTL regime with its
// controller and control-epoch timer. A controller construction failure
// aborts the run: silently skipping the server would leave it without any
// consistency loop at all.
func (s *simulation) scheduleRegimeLoops() error {
	for _, nd := range s.nodes[1:] {
		rc, err := consistency.NewRegimeController(consistency.RegimeConfig{})
		if err != nil {
			return fmt.Errorf("cdn: regime controller for server %d: %w", nd.idx, err)
		}
		nd.rc = rc
		nd.regime = consistency.RegimeTTL
		i := nd.idx
		offset := time.Duration(s.rng(i).Int63n(int64(s.cfg.ServerTTL)))
		s.at(i, offset, func() { s.pollParent(i) })
		s.at(i, offset+s.cfg.ServerTTL, func() { s.regimeEpoch(i) })
	}
	return nil
}

// regimeEpoch re-evaluates one server's regime and reschedules itself.
func (s *simulation) regimeEpoch(i int) {
	nd := s.nodes[i]
	if nd.down {
		return
	}
	gen := nd.gen
	if nd.rc.Decide() {
		next := nd.rc.Regime()
		nd.regime = next
		// Register the new regime with the provider. A dark provider loses
		// the registration and keeps serving the last regime it heard.
		s.deliver(i, 0, lightSizeKB, netmodel.ClassLight, func() {
			if s.prov[0].down {
				return
			}
			s.applyRegime(i, next)
		})
		switch next {
		case consistency.RegimeTTL:
			if nd.pollStopped {
				nd.pollStopped = false
				s.pollAfter(i, s.cfg.ServerTTL)
			}
		default:
			// Push and Invalidation regimes stop the poll loop; the
			// in-flight poll (if any) notices via nd.regime.
			nd.pollStopped = true
			s.armWatchdog(i)
		}
	}
	s.at(i, s.now(i)+s.cfg.ServerTTL, func() {
		if nd.down || nd.gen != gen {
			return
		}
		s.regimeEpoch(i)
	})
}

// applyRegime updates the provider's per-server registries.
func (s *simulation) applyRegime(i int, r consistency.Regime) {
	p := s.nodes[0]
	if p.pushSubs == nil {
		p.pushSubs = make(map[int]bool)
	}
	if p.subscribers == nil {
		p.subscribers = make(map[int]bool)
	}
	delete(p.pushSubs, i)
	delete(p.subscribers, i)
	switch r {
	case consistency.RegimePush:
		p.pushSubs[i] = true
	case consistency.RegimeInvalidation:
		p.subscribers[i] = false // pending notification on the next update
	}
}

// regimePublish disseminates a fresh update under MethodRegime: pushes to
// push-regime servers and (aggregated) invalidations to invalidation-regime
// servers. TTL-regime servers find it on their next poll.
func (s *simulation) regimePublish() {
	provider := s.nodes[0]
	v := s.prov[0].version
	for _, sub := range sortedKeys(provider.pushSubs) {
		child := sub
		s.deliver(0, child, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, func() {
			nd := s.nodes[child]
			if nd.down || v <= nd.version {
				return
			}
			s.setVersion(nd, v)
			if nd.rc != nil {
				nd.rc.ObserveUpdate(s.now(child))
			}
		})
	}
	s.notifySubscribers(0, 0)
}
