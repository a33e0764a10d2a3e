package topology

import (
	"testing"

	"cdnconsistency/internal/geo"
)

func mustGen(t *testing.T, cfg Config) *Topology {
	t.Helper()
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func TestGenerateBasics(t *testing.T) {
	topo := mustGen(t, Config{Servers: 200, UsersPerServer: 3, Seed: 1})
	if len(topo.Servers) != 200 {
		t.Fatalf("servers = %d, want 200", len(topo.Servers))
	}
	if len(topo.Users) != 200 {
		t.Fatalf("user groups = %d, want 200", len(topo.Users))
	}
	for i, us := range topo.Users {
		if len(us) != 3 {
			t.Fatalf("server %d has %d users, want 3", i, len(us))
		}
		for _, u := range us {
			if u.Kind != KindUser {
				t.Fatalf("user kind = %v", u.Kind)
			}
			if u.ISP != topo.Servers[i].ISP {
				t.Fatalf("user ISP %d != server ISP %d", u.ISP, topo.Servers[i].ISP)
			}
		}
	}
	if topo.Provider.Kind != KindProvider {
		t.Error("provider kind wrong")
	}
	// Default provider location is Atlanta.
	if d := geo.DistanceKm(topo.Provider.Loc, geo.Point{Lat: 33.749, Lon: -84.388}); d > 1 {
		t.Errorf("provider %v not at Atlanta", topo.Provider.Loc)
	}
	seen := make(map[string]bool)
	for _, s := range topo.Servers {
		if s.Kind != KindServer {
			t.Fatalf("server kind = %v", s.Kind)
		}
		if !s.Loc.Valid() {
			t.Fatalf("invalid server location %v", s.Loc)
		}
		if seen[s.ID] {
			t.Fatalf("duplicate server id %s", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Servers: 0}); err == nil {
		t.Error("Servers=0 accepted")
	}
	if _, err := Generate(Config{Servers: 10, UsersPerServer: -1}); err == nil {
		t.Error("negative UsersPerServer accepted")
	}
	if _, err := Generate(Config{Servers: 10, Regions: []Region{{Name: "bad", Weight: -1, ISPCount: 1}}}); err == nil {
		t.Error("negative region weight accepted")
	}
	if _, err := Generate(Config{Servers: 10, Regions: []Region{{Name: "zero", Weight: 0, ISPCount: 1}}}); err == nil {
		t.Error("zero total weight accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGen(t, Config{Servers: 100, UsersPerServer: 2, Seed: 42})
	b := mustGen(t, Config{Servers: 100, UsersPerServer: 2, Seed: 42})
	for i := range a.Servers {
		if a.Servers[i] != b.Servers[i] {
			t.Fatalf("server %d differs across identical seeds", i)
		}
	}
	c := mustGen(t, Config{Servers: 100, UsersPerServer: 2, Seed: 43})
	same := 0
	for i := range a.Servers {
		if a.Servers[i].Loc == c.Servers[i].Loc {
			same++
		}
	}
	if same == len(a.Servers) {
		t.Error("different seeds produced identical topologies")
	}
}

func TestRegionWeights(t *testing.T) {
	topo := mustGen(t, Config{Servers: 3000, Seed: 7})
	counts := map[string]int{}
	for _, s := range topo.Servers {
		switch {
		case s.Loc.Lon < -60:
			counts["us"]++
		case s.Loc.Lon < 60:
			counts["europe"]++
		default:
			counts["asia"]++
		}
	}
	// Expect roughly 45/30/25 with generous tolerance.
	if counts["us"] < 1100 || counts["us"] > 1600 {
		t.Errorf("us count = %d, want ~1350", counts["us"])
	}
	if counts["europe"] < 700 || counts["europe"] > 1100 {
		t.Errorf("europe count = %d, want ~900", counts["europe"])
	}
	if counts["asia"] < 550 || counts["asia"] > 950 {
		t.Errorf("asia count = %d, want ~750", counts["asia"])
	}
}

func TestLocationClusters(t *testing.T) {
	topo := mustGen(t, Config{Servers: 500, Seed: 3})
	clusters := topo.LocationClusters()
	total := 0
	for _, c := range clusters {
		if len(c.Members) == 0 {
			t.Fatalf("empty cluster %q", c.Key)
		}
		loc := topo.Servers[c.Members[0]].Loc
		for _, m := range c.Members {
			if topo.Servers[m].Loc != loc {
				t.Fatalf("cluster %q mixes locations", c.Key)
			}
		}
		total += len(c.Members)
	}
	if total != 500 {
		t.Errorf("clusters cover %d servers, want 500", total)
	}
	if len(clusters) < 2 {
		t.Errorf("only %d location clusters", len(clusters))
	}
}

func TestHilbertClusters(t *testing.T) {
	topo := mustGen(t, Config{Servers: 400, Seed: 9})
	clusters, err := topo.HilbertClusters(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 20 {
		t.Fatalf("got %d clusters, want 20", len(clusters))
	}
	total := 0
	for _, c := range clusters {
		if len(c.Members) == 0 {
			t.Fatalf("empty hilbert cluster %q", c.Key)
		}
		total += len(c.Members)
	}
	if total != 400 {
		t.Errorf("clusters cover %d, want 400", total)
	}
	// Near-equal sizes: each cluster should hold 20 +/- 1 members.
	for _, c := range clusters {
		if len(c.Members) < 19 || len(c.Members) > 21 {
			t.Errorf("cluster %q size %d, want ~20", c.Key, len(c.Members))
		}
	}

	if _, err := topo.HilbertClusters(0); err == nil {
		t.Error("maxClusters=0 accepted")
	}
}

func TestHilbertClustersMoreThanServers(t *testing.T) {
	topo := mustGen(t, Config{Servers: 5, Seed: 1})
	clusters, err := topo.HilbertClusters(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 5 {
		t.Errorf("got %d clusters for 5 servers, want 5", len(clusters))
	}
}

// Hilbert clusters should be geographically tighter than random grouping.
func TestHilbertClustersLocality(t *testing.T) {
	topo := mustGen(t, Config{Servers: 600, Seed: 11})
	clusters, err := topo.HilbertClusters(30)
	if err != nil {
		t.Fatal(err)
	}
	diameter := func(members []int) float64 {
		var maxD float64
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				d := geo.DistanceKm(topo.Servers[members[i]].Loc, topo.Servers[members[j]].Loc)
				if d > maxD {
					maxD = d
				}
			}
		}
		return maxD
	}
	var hilbertSum, randomSum float64
	for i, c := range clusters {
		hilbertSum += diameter(c.Members)
		// A "random" cluster: stride through all servers.
		random := make([]int, 0, len(c.Members))
		for j := 0; j < len(c.Members); j++ {
			random = append(random, (i+j*31)%len(topo.Servers))
		}
		randomSum += diameter(random)
	}
	if hilbertSum >= randomSum {
		t.Errorf("hilbert clusters not tighter: %.0f km vs random %.0f km", hilbertSum, randomSum)
	}
}

func TestElectSupernode(t *testing.T) {
	topo := mustGen(t, Config{Servers: 300, Seed: 5})
	clusters, err := topo.HilbertClusters(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clusters {
		sn, err := topo.ElectSupernode(c)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range c.Members {
			if m == sn {
				found = true
			}
		}
		if !found {
			t.Fatalf("supernode %d not a member of cluster %q", sn, c.Key)
		}
	}
	if _, err := topo.ElectSupernode(Cluster{Key: "empty"}); err == nil {
		t.Error("empty cluster supernode election succeeded")
	}
}

func TestWrapAndClampHelpers(t *testing.T) {
	if got := clampLat(95); got != 90 {
		t.Errorf("clampLat(95) = %v", got)
	}
	if got := clampLat(-95); got != -90 {
		t.Errorf("clampLat(-95) = %v", got)
	}
	if got := wrapLon(185); got != -175 {
		t.Errorf("wrapLon(185) = %v", got)
	}
	if got := wrapLon(-185); got != 175 {
		t.Errorf("wrapLon(-185) = %v", got)
	}
}
