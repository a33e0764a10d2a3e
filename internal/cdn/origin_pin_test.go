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

// originPin is one origin path's pin: the SHA-256 (first 12 bytes, hex) of
// its rendered JSON Result with Events zeroed, which covers every modelled
// outcome, and the run's Events, pinned exactly on their own so that a change
// to how many events the model spends shows apart from a change of outcome.
type originPin struct {
	digest string
	events uint64
}

// originPins pins one small run per origin path: a classic provider outage
// for every system that talks to the origin, with failover off and on,
// serial and sharded, and a three-provider federation under both
// provider fault scenarios. Any change to how the origin sends, answers,
// goes dark or disseminates moves at least one of these digests. Other
// architectures may fuse floating-point operations differently, so the pins
// hold on amd64 only.
var originPins = map[string]originPin{
	"HAT/fed3/broker-flap":                   {"705b4aa1c3775d388d8ef765", 4044},
	"HAT/fed3/provider-storm":                {"0acad1c94469746772d8f09f", 3821},
	"HAT/outage":                             {"c3128ec1f3ec663c4fe4b005", 1188},
	"HAT/outage/failover":                    {"1df3cb0d3f4a2de1d9e4882d", 1448},
	"HAT/outage/failover/sharded":            {"0f8d0f90b3da1e0a4c4bc5da", 1448},
	"HAT/outage/sharded":                     {"bd4f5da78d9eddff89afdfe4", 1188},
	"Hybrid/outage":                          {"fd6839bddf118c0b60e46e18", 1492},
	"Hybrid/outage/failover":                 {"fd6839bddf118c0b60e46e18", 1492},
	"Hybrid/outage/failover/sharded":         {"a012f15bdbb696882b554ac0", 1492},
	"Hybrid/outage/sharded":                  {"a012f15bdbb696882b554ac0", 1492},
	"Invalidation/fed3/broker-flap":          {"7a062c92bb2c5381ee4f8da2", 4383},
	"Invalidation/fed3/provider-storm":       {"0cd81033cfa65201a2bc9ada", 3881},
	"Invalidation/outage":                    {"654b682f90147732407782bd", 2201},
	"Invalidation/outage/failover":           {"654b682f90147732407782bd", 2201},
	"Invalidation/outage/failover/sharded":   {"a040aba08d47c4b1b1ac40d6", 2317},
	"Invalidation/outage/sharded":            {"a040aba08d47c4b1b1ac40d6", 2317},
	"Lease/Unicast/outage":                   {"8e1c211f8bf1ef2505676334", 3871},
	"Lease/Unicast/outage/failover":          {"8e1c211f8bf1ef2505676334", 3871},
	"Lease/Unicast/outage/failover/sharded":  {"6ab5c69e72601c36717669b3", 3967},
	"Lease/Unicast/outage/sharded":           {"6ab5c69e72601c36717669b3", 3967},
	"Push/Broadcast/outage":                  {"7b4145e9bfd44bbee78e76c0", 2618},
	"Push/Broadcast/outage/failover":         {"7b4145e9bfd44bbee78e76c0", 2618},
	"Push/Broadcast/outage/failover/sharded": {"d7e3fd390badb0f9680bfbc0", 2650},
	"Push/Broadcast/outage/sharded":          {"d7e3fd390badb0f9680bfbc0", 2650},
	"Push/fed3/broker-flap":                  {"1724614078d1e9136cc19935", 3045},
	"Push/fed3/provider-storm":               {"37693e120386e3ca1b683e44", 2891},
	"Push/outage":                            {"452aafb64e092922578ed0d4", 408},
	"Push/outage/failover":                   {"452aafb64e092922578ed0d4", 408},
	"Push/outage/failover/sharded":           {"93356b6b76a9fad706d99215", 520},
	"Push/outage/sharded":                    {"93356b6b76a9fad706d99215", 520},
	"Regime/Unicast/outage":                  {"e93eb7142af0511dbc123f3b", 3571},
	"Regime/Unicast/outage/failover":         {"131c04d7a2e97312a1016e39", 4347},
	"Regime/Unicast/outage/failover/sharded": {"54592bb3c2553a65ee456abb", 4454},
	"Regime/Unicast/outage/sharded":          {"be017d1d1ca2e206a98c4061", 3665},
	"Self/fed3/broker-flap":                  {"2aad5428474c2cf83d1f75f4", 4210},
	"Self/fed3/provider-storm":               {"63e7b6fdf852290a168b23e0", 3854},
	"Self/outage":                            {"a3af662b764692cab956d82e", 1308},
	"Self/outage/failover":                   {"34d6b71abadcddff7b1ddc17", 1338},
	"Self/outage/failover/sharded":           {"116275318087617ba4bc0434", 1450},
	"Self/outage/sharded":                    {"4120775ea7c7f5571c1e9d93", 1420},
	"TTL/fed3/broker-flap":                   {"7e31a6c644a1a61183d4d7f1", 4210},
	"TTL/fed3/provider-storm":                {"2be298cdd9fa3877c84abcaf", 4048},
	"TTL/outage":                             {"caa1b626610dfa177dedd7bc", 1502},
	"TTL/outage/failover":                    {"caa1b626610dfa177dedd7bc", 1502},
	"TTL/outage/failover/sharded":            {"71c21a3a0fad582f07bc21ef", 1606},
	"TTL/outage/sharded":                     {"71c21a3a0fad582f07bc21ef", 1606},
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

// originDigest renders a Result with Events zeroed as JSON and returns its
// truncated SHA-256.
func originDigest(t *testing.T, res *Result) string {
	t.Helper()
	r := *res
	r.Events = 0
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// TestOriginPathPins runs every origin path once and compares each Result's
// outcome digest and Events with its pin, so a refactor of the origin must
// leave every output byte-identical.
func TestOriginPathPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("origin pins hold on amd64 only (GOARCH=%s)", runtime.GOARCH)
	}
	runs := map[string]Config{}
	for _, sys := range originPinSystems {
		for _, failover := range []bool{false, true} {
			for _, sharded := range []bool{false, true} {
				cfg := originPinConfig(t, sys.method, sys.infra, "outage")
				cfg.Failover = failover
				cfg.Sharded = sharded
				name := sys.name + "/outage"
				if failover {
					name += "/failover"
				}
				if sharded {
					name += "/sharded"
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
			want := originPins[name]
			if got := originDigest(t, res); got != want.digest {
				t.Errorf("outcome digest %s, pinned %s", got, want.digest)
			}
			if res.Events != want.events {
				t.Errorf("events %d, pinned %d", res.Events, want.events)
			}
		})
	}
}
