package plan

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/core"
)

// validPlanJSON is a minimal structurally valid plan.
const validPlanJSON = `{
  "name": "smoke",
  "systems": ["TTL", "HAT"],
  "seeds": [1, 2],
  "servers": 20,
  "users_per_server": 2,
  "server_ttl": "10s",
  "game": {"phases": [{"name": "play", "duration": "2m", "mean_gap": "20s"}]},
  "fault_scenario": "outage",
  "failover": true,
  "assert": [
    {"metric": "p99_user_inconsistency", "op": "<=", "ttl_mult": 4},
    {"metric": "crashes", "op": "==", "value": 0}
  ]
}`

func TestParsePlanAcceptsValid(t *testing.T) {
	p, err := ParsePlan([]byte(validPlanJSON))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Name != "smoke" || len(p.Systems) != 2 || len(p.Assert) != 2 {
		t.Errorf("parsed plan malformed: %+v", p)
	}
	if got := p.EffectiveServerTTL(); got != 10*time.Second {
		t.Errorf("EffectiveServerTTL = %v, want 10s", got)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	ids := make([]string, len(cells))
	for i, c := range cells {
		ids[i] = c.ID()
	}
	want := []string{"smoke/TTL/s1", "smoke/TTL/s2", "smoke/HAT/s1", "smoke/HAT/s2"}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("cell ids = %v, want %v", ids, want)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan([]byte(validPlanJSON))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	data, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	q, err := ParsePlan(data)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(p, q) {
		t.Errorf("round trip changed the plan:\nbefore %+v\nafter  %+v", p, q)
	}
}

func TestParsePlanRejects(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"unknown field", `{"name":"x","systems":["TTL"],"bogus":1,"assert":[{"metric":"crashes","op":"==","value":0}]}`, "unknown field"},
		{"trailing data", validPlanJSON + `{"more": true}`, "trailing data"},
		{"bad name", `{"name":"a b","systems":["TTL"],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "must match"},
		{"no systems", `{"name":"x","systems":[],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "no systems"},
		{"unknown system", `{"name":"x","systems":["NoSuch"],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "unknown system"},
		{"bad pair infra", `{"name":"x","systems":["TTL/Nowhere"],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "unknown infra"},
		{"duplicate system", `{"name":"x","systems":["TTL","TTL"],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "duplicate system"},
		{"duplicate seed", `{"name":"x","systems":["TTL"],"seeds":[1,1],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "duplicate seed"},
		{"negative servers", `{"name":"x","systems":["TTL"],"servers":-1,"assert":[{"metric":"crashes","op":"==","value":0}]}`, "negative servers"},
		{"unknown metric", `{"name":"x","systems":["TTL"],"assert":[{"metric":"nope","op":"==","value":0}]}`, "unknown metric"},
		{"unknown op", `{"name":"x","systems":["TTL"],"assert":[{"metric":"crashes","op":"~=","value":0}]}`, "unknown op"},
		{"no checks", `{"name":"x","systems":["TTL"]}`, "enforce nothing"},
		{"both populations", `{"name":"x","systems":["TTL"],"population":{"servers":[[{"count":1,"offset_ns":0}]]},"population_gen":{"total_users":5},"assert":[{"metric":"crashes","op":"==","value":0}]}`, "mutually exclusive"},
		{"cohort without pop", `{"name":"x","systems":["TTL"],"user_model":"cohort","assert":[{"metric":"crashes","op":"==","value":0}]}`, "requires a Population"},
		{"bad user model", `{"name":"x","systems":["TTL"],"user_model":"quantum","assert":[{"metric":"crashes","op":"==","value":0}]}`, "unknown user model"},
		{"weighted cohort switching", `{"name":"x","systems":["TTL"],"user_model":"cohort","user_switch":true,"population":{"servers":[[{"count":2,"offset_ns":0}]]},"assert":[{"metric":"crashes","op":"==","value":0}]}`, "only for one-member cohorts"},
		{"both faults", `{"name":"x","systems":["TTL"],"fault_scenario":"outage","faults":{},"assert":[{"metric":"crashes","op":"==","value":0}]}`, "mutually exclusive"},
		{"bad scenario", `{"name":"x","systems":["TTL"],"fault_scenario":"meteor","assert":[{"metric":"crashes","op":"==","value":0}]}`, "unknown scenario"},
		{"self-test without audit", `{"name":"x","systems":["TTL"],"audit_self_test":"version-bounds","assert":[{"metric":"crashes","op":"==","value":0}]}`, "requires audit"},
		{"cadence without audit", `{"name":"x","systems":["TTL"],"audit_cadence":"-5s","assert":[{"metric":"crashes","op":"==","value":0}]}`, "requires audit"},
		{"unknown self-test", `{"name":"x","systems":["TTL"],"audit":true,"audit_self_test":"meteor","assert":[{"metric":"crashes","op":"==","value":0}]}`, "unknown audit self-test"},
		// The sharded engine is not a plan setting: its fields and its
		// equivalence check are unknown to the strict parser.
		{"shards field", `{"name":"x","systems":["TTL"],"shards":1,"assert":[{"metric":"crashes","op":"==","value":0}]}`, `unknown field "shards"`},
		{"shard_cells field", `{"name":"x","systems":["TTL"],"shard_cells":8,"assert":[{"metric":"crashes","op":"==","value":0}]}`, `unknown field "shard_cells"`},
		{"shard_workers equivalence", `{"name":"x","systems":["TTL"],"equivalence":["shard_workers"],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "unknown equivalence check"},
		{"cohort equiv without cohort", `{"name":"x","systems":["TTL"],"equivalence":["cohort_explicit"],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "requires user_model"},
		{"unknown equivalence", `{"name":"x","systems":["TTL"],"equivalence":["teleport"],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "unknown equivalence"},
		{"empty game", `{"name":"x","systems":["TTL"],"game":{"phases":[]},"assert":[{"metric":"crashes","op":"==","value":0}]}`, "no phases"},
		{"negative uplink", `{"name":"x","systems":["Push"],"uplink_kbps":-2000,"assert":[{"metric":"crashes","op":"==","value":0}]}`, "negative uplink_kbps"},
		{"negative resolver ttl", `{"name":"x","systems":["TTL"],"dns_resolver_ttl":"-20s","assert":[{"metric":"crashes","op":"==","value":0}]}`, "or dns_resolver_ttl"},
		{"negative users", `{"name":"x","systems":["TTL"],"users_per_server":-1,"assert":[{"metric":"crashes","op":"==","value":0}]}`, "negative users per server"},
		// Method x infra and federation x method are cdn rules; a plan
		// breaking one fails at load, not mid-matrix.
		{"lease off unicast", `{"name":"x","systems":["Lease/Multicast"],"assert":[{"metric":"crashes","op":"==","value":0}]}`, "MethodLease requires InfraUnicast"},
		{"federated lease", `{"name":"x","systems":["Lease/Unicast"],"federation":{"providers":[{"name":"a","lat":1,"lon":2}]},"assert":[{"metric":"crashes","op":"==","value":0}]}`, "Federation is incompatible with MethodLease"},
		{"dns routing with population", `{"name":"x","systems":["TTL"],"dns_resolver_ttl":"20s","population":{"servers":[[{"count":1,"offset_ns":0}]]},"assert":[{"metric":"crashes","op":"==","value":0}]}`, "incompatible with DNS routing"},
		{"dns routing with switching", `{"name":"x","systems":["TTL"],"dns_resolver_ttl":"20s","user_switch":true,"assert":[{"metric":"crashes","op":"==","value":0}]}`, "mutually exclusive"},
	}
	for _, tc := range cases {
		p, err := ParsePlan([]byte(tc.json))
		if err == nil {
			t.Errorf("%s: accepted (%+v)", tc.name, p)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// A game whose phases are all silent breaks can never publish: the plan is
// rejected at load with an error naming the game, not cell by cell at run
// time.
func TestParsePlanRejectsSilentGame(t *testing.T) {
	_, err := ParsePlan([]byte(`{"name":"x","systems":["TTL"],
	  "game":{"phases":[{"name":"warmup","duration":"5m"},{"name":"break","duration":"10m","mean_gap":"0s"}]},
	  "assert":[{"metric":"crashes","op":"==","value":0}]}`))
	if err == nil || !strings.Contains(err.Error(), "game [warmup break] never publishes") {
		t.Fatalf("ParsePlan = %v, want a load error naming game [warmup break]", err)
	}
}

// Plan systems name the paper's six systems or explicit "Method/Infra"
// pairs; cells carry the resolved system under the name the plan used.
func TestResolveSystemPairs(t *testing.T) {
	p, err := ParsePlan([]byte(`{"name":"x","systems":["HAT","TTL/Multicast","AdaptiveTTL/Hybrid"],"assert":[{"metric":"crashes","op":"==","value":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := []core.System{
		core.SystemHAT,
		{Name: "TTL/Multicast", Method: consistency.MethodTTL, Infra: consistency.InfraMulticast},
		{Name: "AdaptiveTTL/Hybrid", Method: consistency.MethodAdaptiveTTL, Infra: consistency.InfraHybrid},
	}
	if len(cells) != len(want) {
		t.Fatalf("cells = %d, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.System != want[i] {
			t.Errorf("cell %d system = %+v, want %+v", i, c.System, want[i])
		}
	}
}

func TestAssertionEval(t *testing.T) {
	metrics := map[string]float64{"crashes": 3, "p99_user_inconsistency": 25}
	ttl := 10 * time.Second
	cases := []struct {
		a      Assertion
		wantOK bool
	}{
		{Assertion{Metric: "crashes", Op: "==", Value: 3}, true},
		{Assertion{Metric: "crashes", Op: "!=", Value: 3}, false},
		{Assertion{Metric: "crashes", Op: "<=", Value: 2}, false},
		{Assertion{Metric: "crashes", Op: "<", Value: 4}, true},
		{Assertion{Metric: "crashes", Op: ">=", Value: 3}, true},
		{Assertion{Metric: "crashes", Op: ">", Value: 3}, false},
		// 2*ttl = 20 < 25: fails; 3*ttl = 30 > 25: passes.
		{Assertion{Metric: "p99_user_inconsistency", Op: "<=", TTLMult: 2}, false},
		{Assertion{Metric: "p99_user_inconsistency", Op: "<=", TTLMult: 3}, true},
		// ttl_mult + value compose: 2*ttl+5 = 25 >= 25.
		{Assertion{Metric: "p99_user_inconsistency", Op: "<=", TTLMult: 2, Value: 5}, true},
		// Absent metric fails, never passes vacuously.
		{Assertion{Metric: "stale_serve_frac", Op: "<=", Value: 1}, false},
	}
	for _, tc := range cases {
		got := tc.a.Eval(metrics, ttl)
		if got.OK != tc.wantOK {
			t.Errorf("%s: OK = %v (%s), want %v", tc.a, got.OK, got.Detail, tc.wantOK)
		}
	}
}

func TestAssertionString(t *testing.T) {
	cases := []struct {
		a    Assertion
		want string
	}{
		{Assertion{Metric: "crashes", Op: "==", Value: 0}, "crashes == 0"},
		{Assertion{Metric: "p99_user_inconsistency", Op: "<=", TTLMult: 2}, "p99_user_inconsistency <= 2*ttl"},
		{Assertion{Metric: "x_y", Op: "<", TTLMult: 1, Value: 3}, "x_y < 1*ttl+3"},
	}
	for _, tc := range cases {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestWeightedPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := weightedPercentile(xs, nil, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := weightedPercentile(xs, nil, 99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := weightedPercentile(xs, nil, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	// Weighted form must match the expanded multiset exactly: {1 x 99, 100 x 1}.
	weighted := weightedPercentile([]float64{1, 100}, []int{99, 1}, 99)
	var expanded []float64
	for i := 0; i < 99; i++ {
		expanded = append(expanded, 1)
	}
	expanded = append(expanded, 100)
	plain := weightedPercentile(expanded, nil, 99)
	if weighted != plain {
		t.Errorf("weighted p99 = %v, expanded p99 = %v", weighted, plain)
	}
	if got := weightedPercentile(nil, nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestMetricNamesSortedAndKnown(t *testing.T) {
	names := MetricNames()
	if len(names) == 0 {
		t.Fatal("no metrics registered")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("MetricNames not strictly sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
	for _, n := range []string{"p99_user_inconsistency", "audit_violations", "provider_km_kb", "stale_serve_frac"} {
		if !knownMetric(n) {
			t.Errorf("metric %q not registered", n)
		}
	}
}
