package trace

import "sort"

// Index groups a crawl's records by day and observer once, for every
// Section-3 consumer. Servers and pollers get dense ids in ascending id
// order, so ascending dense id is sort.Strings order. A group lists record
// positions in Records, in SortRecords order; the index never copies or
// moves a record.
type Index struct {
	Records []PollRecord
	// Servers holds the crawled servers by dense id; Pollers the vantage
	// points (crawlers, provider pollers and users) by dense id.
	Servers []ServerInfo
	Pollers []string
	// ServerOf and PollerOf give each record's dense server and poller id.
	// ServerOf is -1 for a provider record naming no crawled server.
	ServerOf, PollerOf []int32
	Days               []Day
}

// The kinds of record, which index a Day's ByTime: a crawler's poll of a
// content server, a provider poll, and a user view.
const (
	CrawlKind = iota
	ProviderKind
	UserKind
)

// Day is one crawl day of an Index.
type Day struct {
	// ByTime lists the day's records of each kind in SortRecords order.
	ByTime [3][]int32
	// Crawl holds the day's crawler records per dense server id; Provider
	// and User hold its provider and user-view records per dense poller
	// id. Each list is in time order.
	Crawl, Provider, User [][]int32
}

// NewIndex indexes a trace, checking it as it goes: a trace that fails
// Validate fails NewIndex with the same error.
func NewIndex(t *Trace) (*Index, error) {
	servers, err := t.serverIDs()
	if err != nil {
		return nil, err
	}
	recs := t.Records
	ix := &Index{
		Records:  recs,
		Servers:  append([]ServerInfo(nil), t.Servers...),
		ServerOf: make([]int32, len(recs)),
		PollerOf: make([]int32, len(recs)),
		Days:     make([]Day, t.Meta.Days),
	}
	sort.Slice(ix.Servers, func(i, j int) bool { return ix.Servers[i].ID < ix.Servers[j].ID })
	for i, s := range ix.Servers {
		servers[s.ID] = int32(i)
	}
	// Pollers get ids in first-seen order, renumbered in id order below.
	pollers := make(map[string]int32)
	for i := range recs {
		s, known := servers[recs[i].Server]
		if err := t.checkRecord(i, known); err != nil {
			return nil, err
		}
		if !known {
			s = -1
		}
		p, ok := pollers[recs[i].Poller]
		if !ok {
			p = int32(len(ix.Pollers))
			pollers[recs[i].Poller] = p
			ix.Pollers = append(ix.Pollers, recs[i].Poller)
		}
		ix.ServerOf[i], ix.PollerOf[i] = s, p
	}
	rank := make([]int32, len(ix.Pollers))
	sort.Strings(ix.Pollers)
	for i, p := range ix.Pollers {
		rank[pollers[p]] = int32(i)
	}
	for i, p := range ix.PollerOf {
		ix.PollerOf[i] = rank[p]
	}

	// A day's groups are its servers' crawler records, then its pollers'
	// provider records, then its pollers' user-view records: kind k's
	// groups start at base[k] within the day.
	nS, nP := len(ix.Servers), len(ix.Pollers)
	base := [4]int{0, nS, nS + nP, nS + 2*nP}
	per := base[3]
	kind := func(r *PollRecord) int {
		switch {
		case r.Provider:
			return ProviderKind
		case r.UserView:
			return UserKind
		}
		return CrawlKind
	}
	group := func(i int32) int {
		k, obs := kind(&recs[i]), ix.PollerOf[i]
		if k == CrawlKind {
			obs = ix.ServerOf[i]
		}
		return recs[i].Day*per + base[k] + int(obs)
	}
	// Size every group first, so each group and each ByTime list is an
	// exact window of one array.
	start := make([]int, len(ix.Days)*per+1)
	for i := range recs {
		start[group(int32(i))+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	pos, byTime := make([]int32, len(recs)), make([]int32, len(recs))
	groups := make([][]int32, len(start)-1)
	for k := range groups {
		groups[k] = pos[start[k]:start[k]:start[k+1]]
	}
	for d := range ix.Days {
		g := groups[d*per : (d+1)*per]
		day := &ix.Days[d]
		*day = Day{Crawl: g[:nS:nS], Provider: g[nS : nS+nP : nS+nP], User: g[nS+nP:]}
		for k := range day.ByTime {
			lo, hi := start[d*per+base[k]], start[d*per+base[k+1]]
			day.ByTime[k] = byTime[lo:lo:hi]
		}
	}
	for _, i := range sortedOrder(recs) {
		k := group(i)
		groups[k] = append(groups[k], i)
		byKind := &ix.Days[recs[i].Day].ByTime[kind(&recs[i])]
		*byKind = append(*byKind, i)
	}
	return ix, nil
}

// ServerID returns the dense id of the server with the given id, or -1.
func (ix *Index) ServerID(id string) int {
	i := sort.Search(len(ix.Servers), func(i int) bool { return ix.Servers[i].ID >= id })
	if i < len(ix.Servers) && ix.Servers[i].ID == id {
		return i
	}
	return -1
}

// sortedOrder returns the record positions in canonical order (Compare),
// the order SortRecords would leave the records in. The order is total, so
// positions that tie hold identical records.
func sortedOrder(recs []PollRecord) []int32 {
	order := make([]int32, len(recs))
	for i := range order {
		order[i] = int32(i)
	}
	for i := 1; i < len(recs); i++ {
		if Compare(&recs[i], &recs[i-1]) < 0 {
			sort.Slice(order, func(a, b int) bool { return Compare(&recs[order[a]], &recs[order[b]]) < 0 })
			break
		}
	}
	return order
}
