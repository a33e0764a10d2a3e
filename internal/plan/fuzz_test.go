package plan

import (
	"reflect"
	"testing"
)

// FuzzParsePlan feeds arbitrary bytes through ParsePlan. The contract under
// fuzzing: never panic, never return a plan alongside an error, and any
// accepted plan survives a Marshal/reparse round trip unchanged, expands into
// a non-empty cell matrix, and re-validates.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(validPlanJSON))
	f.Add([]byte(`{"name":"x","systems":["TTL"],"assert":[{"metric":"crashes","op":"==","value":0}]}`))
	f.Add([]byte(`{"name":"aud","systems":["Push/Broadcast"],"audit":true,"audit_cadence":"5s","assert":[{"metric":"audit_violations","op":"==","value":0}]}`))
	f.Add([]byte(`{"name":"pop","systems":["HAT"],"user_model":"cohort","population_gen":{"total_users":10,"alpha":1.1},"equivalence":["cohort_explicit"]}`))
	f.Add([]byte(`{"name":"f","systems":["TTL"],"faults":{"random_crashes":{"frac":0.5,"recover_after":30}},"assert":[{"metric":"crashes","op":">","value":0}]}`))
	f.Add([]byte(comparePlanJSON))
	f.Add([]byte(`{"name":"fed","systems":["TTL","Push"],"federation":{"providers":[{"name":"a","lat":1,"lon":2},{"name":"b","lat":3,"lon":4}],"broker":{"period":"20s","hysteresis":0.2,"min_dwell":"1m"},"stale_cap":"30s"},"fault_scenario":"provider-storm","failover":true,"assert":[{"metric":"stranded_users","op":"==","value":0}],"compare":[{"metric":"degraded_seconds","left":"Push","right":"TTL","op":"<=","factor":0}]}`))
	f.Add([]byte(`{"name":"empty","systems":["TTL"],"seeds":[],"equivalence":[],"compare":[],"assert":[{"metric":"users","op":"!="}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[1, 2]`))
	f.Add([]byte(`{"name":"x","systems":["TTL"],"server_ttl":"-5s"}`))
	f.Add([]byte(`{"name":"net","systems":["Push"],"uplink_kbps":2000,"disable_queuing":true,"update_size_kb":500,"assert":[{"metric":"crashes","op":"==","value":0}]}`))
	f.Add([]byte(`{"name":"repair","systems":["Push/Multicast"],"faults":{"random_crashes":{"count":3}},"tree_repair":true,"assert":[{"metric":"crashes","op":"==","value":3}]}`))
	f.Add([]byte(`{"name":"dns","systems":["HAT"],"dns_resolver_ttl":"20s","server_ttl":"60s","users_per_server":0,"assert":[{"metric":"users","op":"==","value":0}]}`))
	f.Add([]byte(`{"name":"visits","systems":["TTL"],"user_model":"cohort","population_gen":{"total_users":100},"visit_accounting":true,"assert":[{"metric":"crashes","op":"==","value":0}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			if p != nil {
				t.Fatal("non-nil plan returned with an error")
			}
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted plan fails Marshal: %v", err)
		}
		q, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("marshaled plan fails reparse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the plan:\nbefore %#v\nafter  %#v", p, q)
		}
		cells, err := p.Cells()
		if err != nil {
			t.Fatalf("accepted plan fails Cells: %v", err)
		}
		if len(cells) == 0 {
			t.Fatal("accepted plan expands to zero cells")
		}
		for _, c := range cells {
			if c.ID() == "" {
				t.Fatal("cell with empty id")
			}
		}
	})
}
