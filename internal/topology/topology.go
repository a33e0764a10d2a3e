// Package topology generates the simulated CDN's node layout: a content
// provider, content servers scattered across world regions with ISP
// affiliations, and end-users attached to servers. It also provides the
// clustering primitives the paper uses — same-location clusters (Section
// 3.4.1), ISP clusters (3.4.3), and Hilbert-curve proximity clusters with
// supernode election (Section 5.2).
package topology

import (
	"fmt"
	"math/rand"
	"sort"

	"cdnconsistency/internal/geo"
)

// NodeKind distinguishes the roles in the topology.
type NodeKind int

// Node roles.
const (
	KindProvider NodeKind = iota + 1
	KindServer
	KindUser
)

// Node is one participant in the CDN.
type Node struct {
	ID   string
	Kind NodeKind
	Loc  geo.Point
	ISP  int
	// City indexes the metro the node was placed in; nodes in the same
	// city share coordinates, matching the paper's same-location clusters.
	City int
}

// Region is a sampling region for server placement.
type Region struct {
	Name   string
	Weight float64 // relative share of servers
	// Bounding box, degrees.
	LatMin, LatMax float64
	LonMin, LonMax float64
	ISPBase        int // first ISP id used in this region
	ISPCount       int // number of ISPs in this region
}

// DefaultRegions mirrors the paper's deployment: servers mainly in the US,
// Europe, and Asia (Section 4).
func DefaultRegions() []Region {
	return []Region{
		{Name: "us", Weight: 0.45, LatMin: 26, LatMax: 48, LonMin: -123, LonMax: -71, ISPBase: 0, ISPCount: 12},
		{Name: "europe", Weight: 0.30, LatMin: 37, LatMax: 59, LonMin: -9, LonMax: 30, ISPBase: 12, ISPCount: 10},
		{Name: "asia", Weight: 0.25, LatMin: 1, LatMax: 45, LonMin: 73, LonMax: 140, ISPBase: 22, ISPCount: 8},
	}
}

// Config controls topology generation.
type Config struct {
	Servers        int      // number of content servers (>0)
	UsersPerServer int      // end-users attached to each server (>=0)
	CitiesPerISP   int      // metros per ISP; default 4
	Regions        []Region // default DefaultRegions()
	ProviderLoc    geo.Point
	Seed           int64
}

func (c Config) withDefaults() (Config, error) {
	if c.Servers <= 0 {
		return c, fmt.Errorf("topology: Servers must be positive, got %d", c.Servers)
	}
	if c.UsersPerServer < 0 {
		return c, fmt.Errorf("topology: UsersPerServer must be >= 0, got %d", c.UsersPerServer)
	}
	if c.CitiesPerISP <= 0 {
		c.CitiesPerISP = 4
	}
	if len(c.Regions) == 0 {
		c.Regions = DefaultRegions()
	}
	var zero geo.Point
	if c.ProviderLoc == zero {
		// Atlanta, as in the paper's PlanetLab deployment (Section 4).
		c.ProviderLoc = geo.Point{Lat: 33.749, Lon: -84.388}
	}
	return c, nil
}

// Topology is a generated CDN layout.
type Topology struct {
	Provider Node
	Servers  []Node
	// Users[i] are the end-users attached to Servers[i].
	Users [][]Node
	// cities holds the metro coordinates, indexed by Node.City.
	cities []cityInfo
}

type cityInfo struct {
	loc geo.Point
	isp int
}

// Generate builds a topology. Servers are placed in cities: each ISP owns
// CitiesPerISP metros inside its region, and servers pick a uniform city of
// a weighted-random region, so co-located servers and ISP clusters both
// arise naturally.
func Generate(cfg Config) (*Topology, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var totalWeight float64
	for _, r := range cfg.Regions {
		if r.Weight < 0 || r.ISPCount <= 0 {
			return nil, fmt.Errorf("topology: bad region %q", r.Name)
		}
		totalWeight += r.Weight
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("topology: regions have zero total weight")
	}

	// Build the city list: ISPCount*CitiesPerISP metros per region.
	var cities []cityInfo
	regionCityIdx := make([][]int, len(cfg.Regions))
	for ri, r := range cfg.Regions {
		for i := 0; i < r.ISPCount; i++ {
			for c := 0; c < cfg.CitiesPerISP; c++ {
				loc := geo.Point{
					Lat: r.LatMin + rng.Float64()*(r.LatMax-r.LatMin),
					Lon: r.LonMin + rng.Float64()*(r.LonMax-r.LonMin),
				}
				regionCityIdx[ri] = append(regionCityIdx[ri], len(cities))
				cities = append(cities, cityInfo{loc: loc, isp: r.ISPBase + i})
			}
		}
	}

	topo := &Topology{
		Provider: Node{ID: "provider", Kind: KindProvider, Loc: cfg.ProviderLoc, ISP: -1, City: -1},
		Servers:  make([]Node, 0, cfg.Servers),
		Users:    make([][]Node, cfg.Servers),
		cities:   cities,
	}

	for i := 0; i < cfg.Servers; i++ {
		ri := pickRegion(rng, cfg.Regions, totalWeight)
		ci := regionCityIdx[ri][rng.Intn(len(regionCityIdx[ri]))]
		city := cities[ci]
		topo.Servers = append(topo.Servers, Node{
			ID:   fmt.Sprintf("server-%04d", i),
			Kind: KindServer,
			Loc:  city.loc,
			ISP:  city.isp,
			City: ci,
		})
	}

	for i, s := range topo.Servers {
		users := make([]Node, 0, cfg.UsersPerServer)
		for u := 0; u < cfg.UsersPerServer; u++ {
			// Users sit near their server with small geographic spread.
			loc := geo.Point{
				Lat: clampLat(s.Loc.Lat + rng.NormFloat64()*0.3),
				Lon: wrapLon(s.Loc.Lon + rng.NormFloat64()*0.3),
			}
			users = append(users, Node{
				ID:   fmt.Sprintf("user-%04d-%02d", i, u),
				Kind: KindUser,
				Loc:  loc,
				ISP:  s.ISP,
				City: s.City,
			})
		}
		topo.Users[i] = users
	}
	return topo, nil
}

func pickRegion(rng *rand.Rand, regions []Region, total float64) int {
	x := rng.Float64() * total
	for i, r := range regions {
		x -= r.Weight
		if x < 0 {
			return i
		}
	}
	return len(regions) - 1
}

func clampLat(lat float64) float64 {
	if lat > 90 {
		return 90
	}
	if lat < -90 {
		return -90
	}
	return lat
}

func wrapLon(lon float64) float64 {
	for lon >= 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

// Cluster is a set of server indices grouped by some affinity.
type Cluster struct {
	Key     string // human-readable label (city id, ISP id, Hilbert bucket)
	Members []int  // indices into Topology.Servers
}

// LocationClusters groups servers that share exact coordinates (the same
// city), matching the paper's same-longitude-and-latitude clustering.
func (t *Topology) LocationClusters() []Cluster {
	return t.clusterBy(func(n Node) string { return fmt.Sprintf("city-%d", n.City) })
}

func (t *Topology) clusterBy(key func(Node) string) []Cluster {
	byKey := make(map[string][]int)
	for i, s := range t.Servers {
		k := key(s)
		byKey[k] = append(byKey[k], i)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Cluster, 0, len(keys))
	for _, k := range keys {
		out = append(out, Cluster{Key: k, Members: byKey[k]})
	}
	return out
}

// HilbertClusters groups servers into at most maxClusters buckets of
// near-equal size by sorting on Hilbert curve index, the scheme the paper
// adopts from ref [39] for supernode grouping.
func (t *Topology) HilbertClusters(maxClusters int) ([]Cluster, error) {
	if maxClusters <= 0 {
		return nil, fmt.Errorf("topology: maxClusters must be positive, got %d", maxClusters)
	}
	h, err := geo.NewHilbert(9)
	if err != nil {
		return nil, err
	}
	type si struct {
		idx int
		d   uint64
	}
	order := make([]si, 0, len(t.Servers))
	for i, s := range t.Servers {
		d, err := h.PointIndex(s.Loc)
		if err != nil {
			return nil, fmt.Errorf("topology: server %s: %w", s.ID, err)
		}
		order = append(order, si{idx: i, d: d})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].d != order[j].d {
			return order[i].d < order[j].d
		}
		return order[i].idx < order[j].idx
	})
	if maxClusters > len(order) && len(order) > 0 {
		maxClusters = len(order)
	}
	out := make([]Cluster, 0, maxClusters)
	n := len(order)
	for c := 0; c < maxClusters; c++ {
		lo := c * n / maxClusters
		hi := (c + 1) * n / maxClusters
		if lo == hi {
			continue
		}
		cl := Cluster{Key: fmt.Sprintf("hilbert-%02d", c)}
		for _, s := range order[lo:hi] {
			cl.Members = append(cl.Members, s.idx)
		}
		out = append(out, cl)
	}
	return out, nil
}

// ElectSupernode picks the cluster member closest to the cluster's geographic
// centroid, a deterministic stand-in for the paper's random supernode choice
// that keeps runs reproducible.
func (t *Topology) ElectSupernode(c Cluster) (int, error) {
	if len(c.Members) == 0 {
		return 0, fmt.Errorf("topology: empty cluster %q", c.Key)
	}
	var latSum, lonSum float64
	for _, m := range c.Members {
		latSum += t.Servers[m].Loc.Lat
		lonSum += t.Servers[m].Loc.Lon
	}
	centroid := geo.Point{Lat: latSum / float64(len(c.Members)), Lon: lonSum / float64(len(c.Members))}
	best := c.Members[0]
	bestD := geo.DistanceKm(t.Servers[best].Loc, centroid)
	for _, m := range c.Members[1:] {
		if d := geo.DistanceKm(t.Servers[m].Loc, centroid); d < bestD {
			best, bestD = m, d
		}
	}
	return best, nil
}
