package topology

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleServerMap() *ServerMap {
	return &ServerMap{
		Provider: SitePoint{Lat: 33.749, Lon: -84.388},
		Sites: []Site{
			{Lat: 40.7, Lon: -74.0, ISP: 0, Servers: []string{"server-0000", "server-0001"}},
			{Lat: 51.5, Lon: -0.1, ISP: 12, Servers: []string{"server-0002"}},
		},
	}
}

func TestServerMapValidate(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"no sites", `{"provider":{"lat":0,"lon":0},"sites":[]}`, "no sites"},
		{"empty site", `{"provider":{"lat":0,"lon":0},"sites":[{"lat":0,"lon":0,"isp":0,"servers":[]}]}`, "no servers"},
		{"dup server", `{"provider":{"lat":0,"lon":0},"sites":[{"lat":0,"lon":0,"isp":0,"servers":["a","a"]}]}`, "duplicate server"},
		{"bad lat", `{"provider":{"lat":99,"lon":0},"sites":[{"lat":0,"lon":0,"isp":0,"servers":["a"]}]}`, "invalid location"},
		{"negative isp", `{"provider":{"lat":0,"lon":0},"sites":[{"lat":0,"lon":0,"isp":-1,"servers":["a"]}]}`, "negative isp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m ServerMap
			if err := json.Unmarshal([]byte(tc.input), &m); err != nil {
				t.Fatal(err)
			}
			err := m.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid map")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestServerMapTopology(t *testing.T) {
	m := sampleServerMap()
	topo, err := m.Topology()
	if err != nil {
		t.Fatalf("Topology: %v", err)
	}
	if got, want := len(topo.Servers), 3; got != want {
		t.Fatalf("server count %d, want %d", got, want)
	}
	if topo.Provider.Loc != m.Provider.Point() {
		t.Errorf("provider at %v, want %v", topo.Provider.Loc, m.Provider.Point())
	}
	// Site-major order, city = site index, users empty but present.
	wantIDs := []string{"server-0000", "server-0001", "server-0002"}
	for i, id := range wantIDs {
		if topo.Servers[i].ID != id {
			t.Errorf("server %d is %q, want %q", i, topo.Servers[i].ID, id)
		}
	}
	if topo.Servers[0].City != 0 || topo.Servers[2].City != 1 {
		t.Errorf("city indices %d/%d, want 0/1", topo.Servers[0].City, topo.Servers[2].City)
	}
	if topo.Servers[2].ISP != 12 {
		t.Errorf("server 2 ISP %d, want 12", topo.Servers[2].ISP)
	}
	if len(topo.Users) != 3 {
		t.Fatalf("users slice length %d, want 3", len(topo.Users))
	}
	// The clustering primitives must work on a materialized map.
	if got := len(topo.LocationClusters()); got != 2 {
		t.Errorf("location clusters %d, want 2", got)
	}
	if _, err := topo.HilbertClusters(2); err != nil {
		t.Errorf("HilbertClusters: %v", err)
	}
}
