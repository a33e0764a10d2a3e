package figures

import (
	"fmt"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
)

// The federation figure family evaluates the multi-CDN origin layer
// (internal/federation) end-to-end: per-provider load, user-observed
// inconsistency, and switch/hand-off/degradation counts per system under a
// rolling provider storm and a flapping-provider broker scenario — the
// robustness axis the paper's single-origin evaluation could not exercise.

// FederationStorm runs every Section 5.3 system through a rolling
// provider-storm over a federated origin (failover on, unlimited
// serve-stale): per-provider origin load, user inconsistency, degradation
// totals, peering hand-offs, durable switches, and stranded users side by
// side.
func FederationStorm(scale SimScale, spec federation.Spec) (*Table, error) {
	header := []string{"system", "user_mean_s", "stale_frac", "failed_visit_frac",
		"degraded_s", "handoffs", "switches", "stranded"}
	for _, p := range spec.Providers {
		header = append(header, p.Name+"_kb")
	}
	t := &Table{
		ID:    "federation-storm",
		Title: fmt.Sprintf("provider-storm over a %d-provider federation (failover on, serve-stale uncapped)", len(spec.Providers)),
		Note: "anycast homing + peering hand-off keep servers origin-connected through the rolling outage; " +
			"during full overlap servers serve stale and record degradation instead of stranding users",
		Header: header,
	}
	systems := core.Systems()
	results, err := scale.run(t, len(systems), func(i int) cell {
		sc := scale.Scenario
		sc.Federation = &spec
		sc.FaultScenario = "provider-storm"
		sc.Failover = true
		return cell{sys: systems[i], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for i, sys := range systems {
		res := results[i]
		row := []string{sys.Name, f3(res.MeanUserInconsistency()), f4(res.StaleServeFrac()),
			f4(res.FailedVisitFrac()), f1(res.DegradedSeconds),
			d0(res.PeerHandoffs), d0(res.ProviderSwitches), d0(res.StrandedUsers)}
		for k := range spec.Providers {
			row = append(row, f1(res.Accounting.BySender[cdn.ProviderSender(k)].KB))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// FederationFlap runs every system through the broker-flap scenario
// (provider 0 cycling down/up) twice: once under an eager broker that
// re-homes on any improvement, once under a damped broker with hysteresis
// and a dwell floor. The switch-count gap is the flap suppression the
// meta-CDN broker exists for.
func FederationFlap(scale SimScale, spec federation.Spec) (*Table, error) {
	t := &Table{
		ID:    "federation-flap",
		Title: fmt.Sprintf("broker-flap over a %d-provider federation: eager vs damped meta-CDN broker", len(spec.Providers)),
		Note: "the flapping home provider invites oscillating re-homing; hysteresis (relative distance " +
			"advantage) and a dwell floor bound the durable switches without giving up failover",
		Header: []string{"system", "broker", "switches", "handoffs", "user_mean_s", "failed_visit_frac", "stranded"},
	}
	brokers := []struct {
		label string
		b     federation.Broker
	}{
		{"eager", federation.Broker{Period: fault.Duration(15 * time.Second)}},
		{"damped", federation.Broker{
			Period:     fault.Duration(15 * time.Second),
			Hysteresis: 0.5,
			MinDwell:   fault.Duration(4 * time.Minute),
		}},
	}
	systems := core.Systems()
	results, err := scale.run(t, len(brokers)*len(systems), func(i int) cell {
		fed := spec
		b := brokers[i/len(systems)].b
		fed.Broker = &b
		sc := scale.Scenario
		sc.Federation = &fed
		sc.FaultScenario = "broker-flap"
		sc.Failover = true
		return cell{sys: systems[i%len(systems)], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for bi, br := range brokers {
		for si, sys := range systems {
			res := results[bi*len(systems)+si]
			t.AddRow(sys.Name, br.label, d0(res.ProviderSwitches), d0(res.PeerHandoffs),
				f3(res.MeanUserInconsistency()), f4(res.FailedVisitFrac()), d0(res.StrandedUsers))
		}
	}
	return t, nil
}
