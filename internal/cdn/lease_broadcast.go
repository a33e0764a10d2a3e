package cdn

import (
	"time"

	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/sim"
)

// This file implements the two taxonomy completions: cooperative leases
// (related work [13]: push while a lease is valid, renew on visit) and
// cluster flooding (the paper's broadcast class: Push-fast consistency at a
// message cost quadratic in cluster size).

// --- Cooperative leases ---

// scheduleLeaseLoops acquires each server's initial lease at a staggered
// offset, mirroring how caches populate on first demand.
func (s *simulation) scheduleLeaseLoops() {
	for _, nd := range s.nodes[1:] {
		i := nd.idx
		offset := time.Duration(s.rng(i).Int63n(int64(leaseDuration)))
		s.at(i, offset, func() { s.renewLease(i, nil) })
	}
}

// renewLease sends a lease request to the provider; the response carries
// the current content and a fresh lease. onDone fires when the content is
// in (deferred user observation on visit-triggered renewals). A dark or
// partitioned provider never grants: the renewal times out after one lease
// duration, pending visitors get the stale content, and the next visit
// retries.
func (s *simulation) renewLease(i int, onDone func()) {
	nd := s.nodes[i]
	if onDone != nil {
		nd.fetchCallbacks = append(nd.fetchCallbacks, fetchCallback{sim.Thunk, onDone, 0})
	}
	if nd.leaseRenewing {
		return
	}
	nd.leaseRenewing = true
	nd.leaseSeq++
	seq, gen := nd.leaseSeq, nd.gen
	s.deliver(i, 0, lightSizeKB, netmodel.ClassLight, func() {
		if s.prov[0].down {
			return // outage: no grant; the renewal timeout serves stale
		}
		provider := s.nodes[0]
		expiry := s.now(0) + leaseDuration
		if provider.leases == nil {
			provider.leases = make(map[int]time.Duration)
		}
		provider.leases[i] = expiry
		v := s.prov[0].version
		s.deliver(0, i, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, func() {
			if nd.gen != gen || nd.leaseSeq != seq || !nd.leaseRenewing {
				return
			}
			nd.leaseRenewing = false
			if nd.down {
				return
			}
			s.setVersion(nd, v)
			nd.leaseExpiry = expiry
			s.runFetchCallbacks(i)
		})
	})
	s.at(i, s.now(i)+leaseDuration, func() {
		if nd.gen != gen || nd.leaseSeq != seq || !nd.leaseRenewing {
			return
		}
		// The grant never came back: give up and serve stale to the
		// waiting visitors.
		nd.leaseRenewing = false
		s.runFetchCallbacks(i)
	})
}

// pushToLeaseholders delivers a freshly published update to every server
// whose lease is still valid, dropping expired entries.
func (s *simulation) pushToLeaseholders() {
	provider := s.nodes[0]
	v := s.prov[0].version
	now := s.now(0)
	for i := 1; i < len(s.nodes); i++ {
		expiry, ok := provider.leases[i]
		if !ok {
			continue
		}
		if expiry <= now {
			delete(provider.leases, i)
			continue
		}
		child := i
		s.deliver(0, child, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, func() {
			nd := s.nodes[child]
			if nd.down || v <= nd.version {
				return
			}
			s.setVersion(nd, v)
		})
	}
}

// leaseValid reports whether a server's lease covers the current time.
func (s *simulation) leaseValid(i int) bool {
	return s.nodes[i].leaseExpiry > s.now(i)
}

// --- Cluster flooding (broadcast) ---

// buildBroadcastClusters assigns every server to a Hilbert proximity
// cluster; flooding stays within the cluster.
func (s *simulation) buildBroadcastClusters() error {
	clusters, err := s.topo.HilbertClusters(s.cfg.Clusters)
	if err != nil {
		return err
	}
	s.clusterOf = make([]int, len(s.nodes))
	s.clusterMembers = make([][]int, len(clusters))
	for ci, cl := range clusters {
		for _, m := range cl.Members {
			ni := m + 1
			s.clusterOf[ni] = ci
			s.clusterMembers[ci] = append(s.clusterMembers[ci], ni)
		}
	}
	return nil
}

// broadcastUpdate seeds every cluster with the new content; receivers flood
// it to all their cluster peers (duplicates are received and dropped — the
// redundant-message cost the paper charges this class with).
func (s *simulation) broadcastUpdate() {
	v := s.prov[0].version
	for ci := range s.clusterMembers {
		if len(s.clusterMembers[ci]) == 0 {
			continue
		}
		seed := s.clusterMembers[ci][0]
		child := seed
		s.deliver(0, child, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, func() { s.floodReceive(child, v) })
	}
}

// floodReceive handles one flooded copy: first-time receivers adopt the
// content and re-flood to every cluster peer.
func (s *simulation) floodReceive(i, v int) {
	nd := s.nodes[i]
	if nd.down || v <= nd.version {
		return // duplicate or stale copy: absorbed silently
	}
	s.setVersion(nd, v)
	for _, peer := range s.clusterMembers[s.clusterOf[i]] {
		if peer == i {
			continue
		}
		p := peer
		s.deliver(i, p, s.cfg.UpdateSizeKB, netmodel.ClassUpdate, func() { s.floodReceive(p, v) })
	}
}
