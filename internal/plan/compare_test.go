package plan

import (
	"reflect"
	"strings"
	"testing"
)

func fptr(v float64) *float64 { return &v }

// comparePlanJSON is a valid plan whose only checks are cross-system compares.
const comparePlanJSON = `{
  "name": "cmp",
  "systems": ["Push", "TTL"],
  "seeds": [1, 2],
  "servers": 20,
  "users_per_server": 2,
  "server_ttl": "10s",
  "compare": [
    {"metric": "degraded_seconds", "left": "TTL", "right": "Push", "op": ">="},
    {"metric": "provider_kb", "left": "Push", "right": "TTL", "op": "<=", "factor": 0.5},
    {"metric": "degraded_seconds", "left": "Push", "right": "TTL", "op": "<=", "factor": 0}
  ]
}`

func TestParsePlanCompareRoundTrip(t *testing.T) {
	p, err := ParsePlan([]byte(comparePlanJSON))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if len(p.Compare) != 3 {
		t.Fatalf("got %d compares, want 3", len(p.Compare))
	}
	// An explicit zero factor must survive the marshal round trip: it is the
	// "left must be exactly 0" form and must not collapse into the nil
	// (factor 1) default.
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
	if q.Compare[2].Factor == nil || *q.Compare[2].Factor != 0 {
		t.Errorf("explicit zero factor lost in round trip: %+v", q.Compare[2])
	}
	if q.Compare[0].Factor != nil {
		t.Errorf("absent factor resurfaced as %v", *q.Compare[0].Factor)
	}
}

func TestParsePlanCompareRejects(t *testing.T) {
	base := func(cmp string) string {
		return `{"name":"x","systems":["Push","TTL"],"compare":[` + cmp + `]}`
	}
	cases := []struct {
		name, json, wantErr string
	}{
		{"unknown metric", base(`{"metric":"nope","left":"TTL","right":"Push","op":"<="}`), "unknown metric"},
		{"unknown op", base(`{"metric":"crashes","left":"TTL","right":"Push","op":"~="}`), "unknown op"},
		{"left not in plan", base(`{"metric":"crashes","left":"HAT","right":"Push","op":"<="}`), "left system"},
		{"right not in plan", base(`{"metric":"crashes","left":"TTL","right":"HAT","op":"<="}`), "right system"},
		{"self compare", base(`{"metric":"crashes","left":"TTL","right":"TTL","op":"<="}`), "left and right are both"},
		{"negative factor", base(`{"metric":"crashes","left":"TTL","right":"Push","op":"<=","factor":-1}`), "negative factor"},
		{"bad federation", `{"name":"x","systems":["TTL"],"federation":{"providers":[]},` +
			`"assert":[{"metric":"crashes","op":"==","value":0}]}`, "at least one provider"},
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

func TestCompareString(t *testing.T) {
	cases := []struct {
		c    Compare
		want string
	}{
		{Compare{Metric: "provider_kb", Left: "HAT", Right: "Push", Op: "<="}, "provider_kb: HAT <= Push"},
		{Compare{Metric: "provider_kb", Left: "HAT", Right: "Push", Op: "<=", Factor: fptr(0.5)}, "provider_kb: HAT <= 0.5*Push"},
		{Compare{Metric: "degraded_seconds", Left: "Push", Right: "TTL", Op: "<=", Factor: fptr(0)}, "degraded_seconds: Push <= 0*TTL"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestCompareEval(t *testing.T) {
	left := map[string]float64{"degraded_seconds": 30}
	right := map[string]float64{"degraded_seconds": 20}
	cases := []struct {
		c      Compare
		wantOK bool
	}{
		{Compare{Metric: "degraded_seconds", Left: "TTL", Right: "Push", Op: ">="}, true},
		{Compare{Metric: "degraded_seconds", Left: "TTL", Right: "Push", Op: "<="}, false},
		{Compare{Metric: "degraded_seconds", Left: "TTL", Right: "Push", Op: "<=", Factor: fptr(2)}, true},
		{Compare{Metric: "degraded_seconds", Left: "TTL", Right: "Push", Op: "==", Factor: fptr(1.5)}, true},
		{Compare{Metric: "degraded_seconds", Left: "TTL", Right: "Push", Op: "!=", Factor: fptr(1.5)}, false},
		{Compare{Metric: "degraded_seconds", Left: "TTL", Right: "Push", Op: ">", Factor: fptr(1.5)}, false},
		{Compare{Metric: "degraded_seconds", Left: "TTL", Right: "Push", Op: "<", Factor: fptr(2)}, true},
		// A zero factor demands an exactly-zero left side.
		{Compare{Metric: "degraded_seconds", Left: "TTL", Right: "Push", Op: "<=", Factor: fptr(0)}, false},
	}
	for _, tc := range cases {
		got := tc.c.Eval(7, left, right)
		if got.OK != tc.wantOK {
			t.Errorf("%s: OK = %v (%s), want %v", tc.c, got.OK, got.Detail, tc.wantOK)
		}
		if !strings.Contains(got.Name, "s7") {
			t.Errorf("%s: check name %q does not carry the seed", tc.c, got.Name)
		}
	}
	// A missing metric on either side fails rather than passing vacuously.
	miss := Compare{Metric: "stranded_users", Left: "TTL", Right: "Push", Op: "<="}
	if got := miss.Eval(1, left, right); got.OK {
		t.Errorf("missing metric passed: %+v", got)
	}
	if got := miss.Eval(1, nil, right); got.OK {
		t.Errorf("nil left side passed: %+v", got)
	}
}

func TestEvalCompares(t *testing.T) {
	p, err := ParsePlan([]byte(comparePlanJSON))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	cell := func(system string, seed int64, degraded, kb float64) *CellResult {
		return &CellResult{
			ID: p.Name + "/" + system, Plan: p.Name, System: system, Seed: seed,
			Metrics: map[string]float64{"degraded_seconds": degraded, "provider_kb": kb},
		}
	}
	cells := []*CellResult{
		cell("Push", 1, 0, 40), cell("Push", 2, 0, 44),
		cell("TTL", 1, 30, 100), cell("TTL", 2, 35, 110),
		// A cell from another plan with wild numbers must be ignored.
		{ID: "other/TTL", Plan: "other", System: "TTL", Seed: 1,
			Metrics: map[string]float64{"degraded_seconds": 1e9, "provider_kb": 1e9}},
	}
	cr := EvalCompares(p, cells)
	if cr == nil {
		t.Fatal("EvalCompares returned nil for a plan with compares")
	}
	if cr.ID != "cmp/compare" || cr.System != "compare" {
		t.Errorf("synthetic cell mislabeled: %+v", cr)
	}
	// 3 compares x 2 seeds, all satisfied by the numbers above.
	if len(cr.Checks) != 6 {
		t.Fatalf("got %d checks, want 6", len(cr.Checks))
	}
	if cr.Failed() {
		for _, c := range cr.Checks {
			if !c.OK {
				t.Errorf("unexpected failure: %s (%s)", c.Name, c.Detail)
			}
		}
	}
	// Break one side: Push's provider_kb rises above 0.5x TTL's on seed 2.
	cells[1].Metrics["provider_kb"] = 56
	cr = EvalCompares(p, cells)
	var failed []string
	for _, c := range cr.Checks {
		if !c.OK {
			failed = append(failed, c.Name)
		}
	}
	want := []string{"compare provider_kb: Push <= 0.5*TTL s2"}
	if !reflect.DeepEqual(failed, want) {
		t.Errorf("failed checks = %v, want %v", failed, want)
	}

	// No compares declared: nil, not an empty block.
	q, err := ParsePlan([]byte(validPlanJSON))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if got := EvalCompares(q, cells); got != nil {
		t.Errorf("EvalCompares without compares = %+v, want nil", got)
	}
}

func TestFederationMetricsRegistered(t *testing.T) {
	for _, n := range []string{"degraded_seconds", "provider_switches", "peer_handoffs", "stranded_users"} {
		if !knownMetric(n) {
			t.Errorf("metric %q not registered", n)
		}
	}
}
