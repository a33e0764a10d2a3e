package topology

import (
	"fmt"

	"cdnconsistency/internal/geo"
)

// SitePoint is a bare coordinate in a server-map spec.
type SitePoint struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Point converts to the geo primitive.
func (p SitePoint) Point() geo.Point { return geo.Point{Lat: p.Lat, Lon: p.Lon} }

// Site is one deployment location: co-located servers sharing coordinates
// and an ISP — the unit the paper's same-location clusters group by.
type Site struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	// ISP is the site's provider id (>= 0).
	ISP int `json:"isp"`
	// Servers lists the content-server ids deployed at the site.
	Servers []string `json:"servers"`
}

// ServerMap is a declarative server topology: the content provider's
// vantage point plus the deployment sites. It is the topology half of an
// imported spec bundle — unlike topology.Config it names concrete servers
// rather than sampling them, so a simulation can replay an observed
// deployment exactly.
type ServerMap struct {
	Provider SitePoint `json:"provider"`
	Sites    []Site    `json:"sites"`
}

// NumServers counts the servers across all sites.
func (m *ServerMap) NumServers() int {
	n := 0
	for _, s := range m.Sites {
		n += len(s.Servers)
	}
	return n
}

// Validate checks structural soundness: valid coordinates, at least one
// site, every site populated, and globally unique non-empty server ids.
func (m *ServerMap) Validate() error {
	if m == nil {
		return fmt.Errorf("topology: nil server map")
	}
	if !m.Provider.Point().Valid() {
		return fmt.Errorf("topology: server map provider at invalid location %v,%v", m.Provider.Lat, m.Provider.Lon)
	}
	if len(m.Sites) == 0 {
		return fmt.Errorf("topology: server map has no sites")
	}
	seen := make(map[string]bool, m.NumServers())
	for si, s := range m.Sites {
		if !(geo.Point{Lat: s.Lat, Lon: s.Lon}).Valid() {
			return fmt.Errorf("topology: site %d at invalid location %v,%v", si, s.Lat, s.Lon)
		}
		if s.ISP < 0 {
			return fmt.Errorf("topology: site %d has negative isp %d", si, s.ISP)
		}
		if len(s.Servers) == 0 {
			return fmt.Errorf("topology: site %d has no servers", si)
		}
		for _, id := range s.Servers {
			if id == "" {
				return fmt.Errorf("topology: site %d has a server with empty id", si)
			}
			if seen[id] {
				return fmt.Errorf("topology: duplicate server id %q", id)
			}
			seen[id] = true
		}
	}
	return nil
}

// Topology materializes the map as a simulation topology: servers in
// site-major order (each site is one city), with no attached users — a
// server-map-driven run supplies its user population explicitly via
// workload.Population.
func (m *ServerMap) Topology() (*Topology, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	topo := &Topology{
		Provider: Node{ID: "provider", Kind: KindProvider, Loc: m.Provider.Point(), ISP: -1, City: -1},
		Servers:  make([]Node, 0, m.NumServers()),
		cities:   make([]cityInfo, 0, len(m.Sites)),
	}
	for si, s := range m.Sites {
		loc := geo.Point{Lat: s.Lat, Lon: s.Lon}
		topo.cities = append(topo.cities, cityInfo{loc: loc, isp: s.ISP})
		for _, id := range s.Servers {
			topo.Servers = append(topo.Servers, Node{
				ID: id, Kind: KindServer, Loc: loc, ISP: s.ISP, City: si,
			})
		}
	}
	topo.Users = make([][]Node, len(topo.Servers))
	return topo, nil
}
