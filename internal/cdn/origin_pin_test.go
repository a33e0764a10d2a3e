package cdn

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// originPins holds the SHA-256 (first 12 bytes, hex) of the rendered JSON
// Result of one small run per origin path: a classic provider outage for
// every system that talks to the origin, with failover off and on, serial
// and on two shards, and a three-provider federation under both provider
// fault scenarios. Any change to how the origin sends, answers, goes dark or
// disseminates moves at least one of these digests. Other architectures may
// fuse floating-point operations differently, so the pins hold on amd64 only.
var originPins = map[string]string{
	"HAT/fed3/broker-flap":                   "61fdbc1f809048bc666045a2",
	"HAT/fed3/provider-storm":                "795305b4854d95a1dab2b6dc",
	"HAT/outage":                             "2ea6ed9f5759fcca7f067ba4",
	"HAT/outage/failover":                    "fe201a8f99e7163c6e9f0aa3",
	"HAT/outage/failover/shards2":            "ff8dc0de24485ea945d6d02f",
	"HAT/outage/shards2":                     "66afafc967bffec18708083b",
	"Hybrid/outage":                          "eb8cb9c5a2e4afc83414206b",
	"Hybrid/outage/failover":                 "eb8cb9c5a2e4afc83414206b",
	"Hybrid/outage/failover/shards2":         "b7066342fb29547cdc489a36",
	"Hybrid/outage/shards2":                  "b7066342fb29547cdc489a36",
	"Invalidation/fed3/broker-flap":          "115912e960c3f985d8e2d1bb",
	"Invalidation/fed3/provider-storm":       "c35b627c3a4a4a6733457088",
	"Invalidation/outage":                    "4bce50e4254d065b94ebba26",
	"Invalidation/outage/failover":           "4bce50e4254d065b94ebba26",
	"Invalidation/outage/failover/shards2":   "7b17bb71ccdee28e71ecc1d3",
	"Invalidation/outage/shards2":            "7b17bb71ccdee28e71ecc1d3",
	"Lease/Unicast/outage":                   "f6aa77d1093e2c1d68460e20",
	"Lease/Unicast/outage/failover":          "f6aa77d1093e2c1d68460e20",
	"Lease/Unicast/outage/failover/shards2":  "0067710ef518320645ad02c5",
	"Lease/Unicast/outage/shards2":           "0067710ef518320645ad02c5",
	"Push/Broadcast/outage":                  "e01defc3dc0e4729ce93623d",
	"Push/Broadcast/outage/failover":         "e01defc3dc0e4729ce93623d",
	"Push/Broadcast/outage/failover/shards2": "7d2498f11e8531d8baca263b",
	"Push/Broadcast/outage/shards2":          "7d2498f11e8531d8baca263b",
	"Push/fed3/broker-flap":                  "2249dcc64964da44eb3fe5c6",
	"Push/fed3/provider-storm":               "e84ce8badd940cb1dbac7c06",
	"Push/outage":                            "736862f08b07acd01d09bf18",
	"Push/outage/failover":                   "736862f08b07acd01d09bf18",
	"Push/outage/failover/shards2":           "0cb66b092d95debef4f2cfb1",
	"Push/outage/shards2":                    "0cb66b092d95debef4f2cfb1",
	"Regime/Unicast/outage":                  "7f309b2867404ef6977cd2e0",
	"Regime/Unicast/outage/failover":         "3a193febb15fbbd5d1c898fa",
	"Regime/Unicast/outage/failover/shards2": "f8b783338077d6cdc2c2a7ba",
	"Regime/Unicast/outage/shards2":          "dd9e2aa08389ebdb8a5aa2c9",
	"Self/fed3/broker-flap":                  "0369d69c037958e8781c3d80",
	"Self/fed3/provider-storm":               "d08b24eb1a4b3fa05b44315a",
	"Self/outage":                            "57b87285c383e2da67c405ef",
	"Self/outage/failover":                   "6cd54ac7a6738a3c0731b91b",
	"Self/outage/failover/shards2":           "a67d35d5fa62b84dc0265078",
	"Self/outage/shards2":                    "8662d2eb3631df122b366751",
	"TTL/fed3/broker-flap":                   "21bfa6f43a0b776341823f0d",
	"TTL/fed3/provider-storm":                "ea085d27c728ce570750b8d0",
	"TTL/outage":                             "c9e2dc54fdef5a43a2c51687",
	"TTL/outage/failover":                    "c9e2dc54fdef5a43a2c51687",
	"TTL/outage/failover/shards2":            "1658d50f1c0447d27a6f5078",
	"TTL/outage/shards2":                     "1658d50f1c0447d27a6f5078",
}

// originPinSystems are the systems whose origin path the outage pins cover.
var originPinSystems = []struct {
	name   string
	method consistency.Method
	infra  consistency.Infra
}{
	{"Push", consistency.MethodPush, consistency.InfraUnicast},
	{"Invalidation", consistency.MethodInvalidation, consistency.InfraUnicast},
	{"TTL", consistency.MethodTTL, consistency.InfraUnicast},
	{"Self", consistency.MethodSelfAdaptive, consistency.InfraUnicast},
	{"Hybrid", consistency.MethodTTL, consistency.InfraHybrid},
	{"HAT", consistency.MethodSelfAdaptive, consistency.InfraHybrid},
	{"Lease/Unicast", consistency.MethodLease, consistency.InfraUnicast},
	{"Regime/Unicast", consistency.MethodRegime, consistency.InfraUnicast},
	{"Push/Broadcast", consistency.MethodPush, consistency.InfraBroadcast},
}

// originPinConfig is a 30-server run over an eight-minute game with one
// silent break, under the named fault scenario.
func originPinConfig(t *testing.T, method consistency.Method, infra consistency.Infra, scenario string) Config {
	t.Helper()
	game := workload.GameConfig{
		Phases: []workload.Phase{
			{Name: "p", Duration: 3 * time.Minute, MeanGap: 20 * time.Second},
			{Name: "b", Duration: 2 * time.Minute, MeanGap: 0},
			{Name: "p2", Duration: 3 * time.Minute, MeanGap: 20 * time.Second},
		},
		SizeKB: 1,
	}
	updates, err := workload.Schedule(game, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fault.Scenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Method:   method,
		Infra:    infra,
		Topology: topology.Config{Servers: 30, UsersPerServer: 1, Seed: 5},
		Clusters: 4,
		Updates:  updates,
		Seed:     5,
		Faults:   &spec,
	}
}

// originDigest renders a Result as JSON and returns its truncated SHA-256.
func originDigest(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// TestOriginPathPins runs every origin path once and compares each Result's
// digest with its pin, so a refactor of the origin must leave every output
// byte-identical.
func TestOriginPathPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("origin pins hold on amd64 only (GOARCH=%s)", runtime.GOARCH)
	}
	runs := map[string]Config{}
	for _, sys := range originPinSystems {
		for _, failover := range []bool{false, true} {
			for _, shards := range []int{0, 2} {
				cfg := originPinConfig(t, sys.method, sys.infra, "outage")
				cfg.Failover = failover
				cfg.Shards = shards
				name := sys.name + "/outage"
				if failover {
					name += "/failover"
				}
				if shards > 0 {
					name += "/shards2"
				}
				runs[name] = cfg
			}
		}
	}
	spec := federation.DefaultSpec(3)
	spec.Broker = &federation.Broker{
		Period:     fault.Duration(20 * time.Second),
		Hysteresis: 0.2,
		MinDwell:   fault.Duration(time.Minute),
	}
	for _, sys := range originPinSystems[:6] {
		if sys.name == "Hybrid" {
			continue
		}
		for _, scenario := range []string{"provider-storm", "broker-flap"} {
			cfg := originPinConfig(t, sys.method, sys.infra, scenario)
			cfg.Failover = true
			cfg.Federation = &spec
			runs[sys.name+"/fed3/"+scenario] = cfg
		}
	}
	for name, cfg := range runs {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got, want := originDigest(t, res), originPins[name]; got != want {
				t.Errorf("digest %s, pinned %s", got, want)
			}
		})
	}
}
