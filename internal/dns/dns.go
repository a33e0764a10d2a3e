// Package dns models the request-routing plane of the paper's Figure 1: an
// end-user resolves the content domain through its local DNS resolver,
// which caches the answer for a short TTL; on a miss the CDN's
// authoritative DNS picks a content server near the user with
// load-balancing consideration. Expiring resolver entries plus authoritative
// re-assignment are what redirect ~13-17% of a user's visits to a different
// server (Section 3.3) — the mechanism behind user-observed inconsistency.
package dns

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cdnconsistency/internal/geo"
)

// ServerEntry is one content server the authoritative DNS can hand out.
type ServerEntry struct {
	Index int // caller's server index
	Loc   geo.Point
}

// Authoritative is the CDN's authoritative DNS: it answers with one of the
// k servers nearest to the querying resolver, weighted away from loaded
// servers. It is deterministic given its RNG.
type Authoritative struct {
	servers []ServerEntry
	// CandidateSet is how many nearest servers are eligible per answer
	// (load balancing spreads answers across them); default 3.
	candidateSet int
	load         map[int]int
	down         map[int]bool
	rng          *rand.Rand
}

// NewAuthoritative builds the authoritative DNS over the server set.
func NewAuthoritative(servers []ServerEntry, candidateSet int, rng *rand.Rand) (*Authoritative, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("dns: no servers")
	}
	if candidateSet <= 0 {
		candidateSet = 3
	}
	if candidateSet > len(servers) {
		candidateSet = len(servers)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Authoritative{
		servers:      append([]ServerEntry(nil), servers...),
		candidateSet: candidateSet,
		load:         make(map[int]int),
		down:         make(map[int]bool),
		rng:          rng,
	}, nil
}

// SetLive marks a server as live or dead. Dead servers are skipped when
// answering queries (the CDN's health-check feedback into request routing);
// if every server is dead, Resolve falls back to the full set rather than
// failing — the paper's observation that cached IPs of failed servers keep
// attracting requests (Section 3.4.5) still applies at the resolver layer.
func (a *Authoritative) SetLive(serverIdx int, live bool) {
	if live {
		delete(a.down, serverIdx)
	} else {
		a.down[serverIdx] = true
	}
}

// Resolve answers a query from a resolver at loc: one of the candidateSet
// nearest servers, preferring the least-loaded (ties broken randomly). The
// chosen server's load counter is incremented; Release decrements it.
func (a *Authoritative) Resolve(loc geo.Point) int {
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, 0, len(a.servers))
	for _, s := range a.servers {
		if a.down[s.Index] {
			continue
		}
		cands = append(cands, cand{idx: s.Index, dist: geo.DistanceKm(loc, s.Loc)})
	}
	if len(cands) == 0 {
		// Every server is down: answer from the full set anyway.
		for _, s := range a.servers {
			cands = append(cands, cand{idx: s.Index, dist: geo.DistanceKm(loc, s.Loc)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].idx < cands[j].idx
	})
	if len(cands) > a.candidateSet {
		cands = cands[:a.candidateSet]
	}
	// Least-loaded among the candidates; random tie-break keeps answers
	// spread for equal loads (the paper's "load-balancing consideration").
	best := cands[0]
	bestLoad := a.load[best.idx]
	ties := 1
	for _, c := range cands[1:] {
		l := a.load[c.idx]
		switch {
		case l < bestLoad:
			best, bestLoad, ties = c, l, 1
		case l == bestLoad:
			ties++
			if a.rng.Intn(ties) == 0 {
				best = c
			}
		}
	}
	a.load[best.idx]++
	return best.idx
}

// Release reports that a client stopped using a server (its cached entry
// expired without renewal), freeing authoritative-side load.
func (a *Authoritative) Release(serverIdx int) {
	if a.load[serverIdx] > 0 {
		a.load[serverIdx]--
	}
}

// Load returns the current assignment count of a server.
func (a *Authoritative) Load(serverIdx int) int { return a.load[serverIdx] }

// Resolver is a local DNS resolver with a single cached entry per client
// (we model one content domain). Entries expire after TTL; an expired
// lookup goes back to the authoritative server.
type Resolver struct {
	auth *Authoritative
	ttl  time.Duration
	loc  geo.Point

	cached    int
	expiresAt time.Duration
	hasEntry  bool

	lookups, misses int
}

// NewResolver builds a resolver at loc whose cache entries live for ttl.
func NewResolver(auth *Authoritative, loc geo.Point, ttl time.Duration) (*Resolver, error) {
	if auth == nil {
		return nil, fmt.Errorf("dns: nil authoritative")
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("dns: non-positive resolver TTL %v", ttl)
	}
	return &Resolver{auth: auth, ttl: ttl, loc: loc}, nil
}

// Lookup returns the server index for a request at virtual time now,
// consulting the cache first. The boolean reports whether the answer came
// from the authoritative DNS (a potential redirection point).
func (r *Resolver) Lookup(now time.Duration) (serverIdx int, fresh bool) {
	r.lookups++
	if r.hasEntry && now < r.expiresAt {
		return r.cached, false
	}
	r.misses++
	if r.hasEntry {
		r.auth.Release(r.cached)
	}
	r.cached = r.auth.Resolve(r.loc)
	r.expiresAt = now + r.ttl
	r.hasEntry = true
	return r.cached, true
}

// Flush drops the cached entry so the next Lookup re-resolves at the
// authoritative DNS — the failover path after a client notices its cached
// server is unresponsive.
func (r *Resolver) Flush() {
	if r.hasEntry {
		r.auth.Release(r.cached)
		r.hasEntry = false
	}
}
