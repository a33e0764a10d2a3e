// Package dns models the request-routing plane of the paper's Figure 1: an
// end-user resolves the content domain through its local DNS resolver,
// which caches the answer for a short TTL; on a miss the CDN's
// authoritative DNS picks a content server near the user with
// load-balancing consideration. Expiring resolver entries plus authoritative
// re-assignment are what redirect ~13-17% of a user's visits to a different
// server (Section 3.3) — the mechanism behind user-observed inconsistency.
package dns

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cdnconsistency/internal/geo"
)

// candidateSet is how many nearest live servers are eligible per answer;
// load balancing spreads answers across them.
const candidateSet = 3

// ServerEntry is one content server the authoritative DNS can hand out.
type ServerEntry struct {
	Index int // caller's server index
	Loc   geo.Point
}

// Authoritative is the CDN's authoritative DNS: it answers with one of the
// candidateSet servers nearest to the querying resolver, weighted away from
// loaded servers. It is deterministic given its RNG.
type Authoritative struct {
	servers []ServerEntry
	load    map[int]int
	down    map[int]bool
	rng     *rand.Rand
}

// NewAuthoritative builds the authoritative DNS over the server set; rng,
// which must not be nil, breaks ties between equally loaded candidates.
func NewAuthoritative(servers []ServerEntry, rng *rand.Rand) (*Authoritative, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("dns: no servers")
	}
	return &Authoritative{
		servers: append([]ServerEntry(nil), servers...),
		load:    make(map[int]int),
		down:    make(map[int]bool),
		rng:     rng,
	}, nil
}

// SetLive marks a server as live or dead. Dead servers are skipped when
// answering queries (the CDN's health-check feedback into request routing);
// if every server is dead, an answer falls back to the nearest servers,
// dead or not, rather than failing — the paper's observation that cached
// IPs of failed servers keep attracting requests (Section 3.4.5) still
// applies at the resolver layer.
func (a *Authoritative) SetLive(serverIdx int, live bool) {
	if live {
		delete(a.down, serverIdx)
	} else {
		a.down[serverIdx] = true
	}
}

// rank orders every server by great-circle distance from loc, ties by
// server index. Servers never move, so a resolver ranks them once.
func (a *Authoritative) rank(loc geo.Point) []int {
	type ranked struct {
		idx  int
		dist float64
	}
	rs := make([]ranked, len(a.servers))
	for i, s := range a.servers {
		rs[i] = ranked{idx: s.Index, dist: geo.DistanceKm(loc, s.Loc)}
	}
	slices.SortFunc(rs, func(x, y ranked) int {
		return cmp.Or(cmp.Compare(x.dist, y.dist), cmp.Compare(x.idx, y.idx))
	})
	order := make([]int, len(rs))
	for i, r := range rs {
		order[i] = r.idx
	}
	return order
}

// resolve answers a query from a resolver whose servers rank orders: one of
// its first candidateSet live servers (of its first candidateSet servers if
// every server is down), preferring the least-loaded (ties broken
// randomly). The chosen server's load counter is incremented; Release
// decrements it.
func (a *Authoritative) resolve(rank []int) int {
	var buf [candidateSet]int
	cands := buf[:0]
	for _, idx := range rank {
		if len(cands) == candidateSet {
			break
		}
		if !a.down[idx] {
			cands = append(cands, idx)
		}
	}
	if len(cands) == 0 {
		cands = append(cands, rank[:min(candidateSet, len(rank))]...)
	}
	// Least-loaded among the candidates; random tie-break keeps answers
	// spread for equal loads (the paper's "load-balancing consideration").
	best := cands[0]
	bestLoad := a.load[best]
	ties := 1
	for _, c := range cands[1:] {
		l := a.load[c]
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
	a.load[best]++
	return best
}

// Release reports that a client stopped using a server (its cached entry
// expired without renewal), freeing authoritative-side load.
func (a *Authoritative) Release(serverIdx int) {
	if a.load[serverIdx] > 0 {
		a.load[serverIdx]--
	}
}

// Resolver is a local DNS resolver with a single cached entry per client
// (we model one content domain). Entries expire after TTL; an expired
// lookup goes back to the authoritative server.
type Resolver struct {
	auth *Authoritative
	ttl  time.Duration
	rank []int // every server, nearest to the resolver first

	cached    int
	expiresAt time.Duration
	hasEntry  bool
}

// NewResolver builds a resolver at loc whose cache entries live for ttl.
func NewResolver(auth *Authoritative, loc geo.Point, ttl time.Duration) (*Resolver, error) {
	if auth == nil {
		return nil, fmt.Errorf("dns: nil authoritative")
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("dns: non-positive resolver TTL %v", ttl)
	}
	return &Resolver{auth: auth, ttl: ttl, rank: auth.rank(loc)}, nil
}

// Lookup returns the server index for a request at virtual time now,
// consulting the cache first. The boolean reports whether the answer came
// from the authoritative DNS (a potential redirection point).
func (r *Resolver) Lookup(now time.Duration) (serverIdx int, fresh bool) {
	if r.hasEntry && now < r.expiresAt {
		return r.cached, false
	}
	if r.hasEntry {
		r.auth.Release(r.cached)
	}
	r.cached = r.auth.resolve(r.rank)
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
