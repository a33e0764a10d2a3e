package figures

import (
	"fmt"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
)

// The fault figure family evaluates the fault-injection subsystem
// (internal/fault) end-to-end: per-method inconsistency and stale-serve
// rate under crash-recovery churn, recovery time versus fault intensity,
// and the value of failure-aware failover under a compound scenario.

// ExtFaults sweeps crash-recovery churn intensity across methods with
// failover enabled: how much user-observed inconsistency, stale serving,
// and recovery lag does each fraction of failed servers induce?
func ExtFaults(scale SimScale) (*Table, error) {
	t := &Table{
		ID:     "ext-faults",
		Title:  "crash-recovery churn vs fault intensity: inconsistency, stale serves, recovery time",
		Note:   "paper Section 3.4: server failure is a root cause of observed inconsistency in the measured CDN",
		Header: []string{"method", "fail_frac", "crashes", "recovered", "user_mean_s", "stale_frac", "failed_visit_frac", "mean_recovery_s"},
	}
	fracs := []float64{0.1, 0.2, 0.4}
	systems := []core.System{core.SystemPush, core.SystemInvalidation, core.SystemTTL}
	results, err := scale.run(t, len(fracs)*len(systems), func(i int) cell {
		sc := scale.Scenario
		sc.Faults = &fault.Spec{RandomCrashes: &fault.RandomCrashes{
			Frac:         fracs[i/len(systems)],
			RecoverAfter: fault.Duration(3 * time.Minute),
		}}
		sc.Failover = true
		return cell{sys: systems[i%len(systems)], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for fi, frac := range fracs {
		for si, sys := range systems {
			res := results[fi*len(systems)+si]
			t.AddRow(sys.Name, f2(frac), d0(res.Crashes), d0(res.Recoveries),
				f3(res.MeanUserInconsistency()), f4(res.StaleServeFrac()),
				f4(res.FailedVisitFrac()), f1(res.MeanRecoverySeconds()))
		}
	}
	return t, nil
}

// extFailoverSpec is the compound scenario ExtFailover runs: churn plus an
// ISP partition plus a provider outage, exercising every failover reaction
// (reparenting, user re-homing, TTL fallback, re-sync).
func extFailoverSpec() fault.Spec {
	return fault.Spec{
		RandomCrashes:   &fault.RandomCrashes{Frac: 0.15, RecoverAfter: fault.Duration(3 * time.Minute)},
		Partitions:      []fault.Partition{{StartFrac: 0.3, DurFrac: 0.15, RandomISPs: 3}},
		ProviderOutages: []fault.Window{{StartFrac: 0.7, DurFrac: 0.1}},
	}
}

// ExtFailover toggles failure-aware failover under the compound scenario:
// with it off, users keep hitting dead replicas and orphaned subtrees
// starve; with it on, timeouts trigger reparenting, user re-homing, and
// TTL fallback, bounding the damage.
func ExtFailover(scale SimScale) (*Table, error) {
	t := &Table{
		ID:    "ext-failover",
		Title: "failure-aware failover on/off under churn + partition + provider outage",
		Note: "failover reparents orphans, re-homes users, and TTL-falls-back during provider outages; final_frac exposes zombie-stale servers " +
			"(user_mean_s only averages updates a user eventually saw, so a never-recovering server biases it low; " +
			"fetch-on-visit systems also leave servers abandoned by re-homed users lazily stale, which no user observes)",
		Header: []string{"system", "failover", "user_mean_s", "stale_frac", "failed_visit_frac", "final_frac", "user_failovers", "reparents", "ttl_fallbacks"},
	}
	systems := []core.System{
		{Name: "TTL/multicast", Method: consistency.MethodTTL, Infra: consistency.InfraMulticast},
		core.SystemTTL,
		core.SystemSelf,
		core.SystemHAT,
	}
	modes := []bool{false, true}
	spec := extFailoverSpec()
	results, err := scale.run(t, len(modes)*len(systems), func(i int) cell {
		sc := scale.Scenario
		sc.Faults = &spec
		sc.Failover = modes[i/len(systems)]
		return cell{sys: systems[i%len(systems)], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for mi, mode := range modes {
		for si, sys := range systems {
			res := results[mi*len(systems)+si]
			t.AddRow(sys.Name, onOff(mode), f3(res.MeanUserInconsistency()),
				f4(res.StaleServeFrac()), f4(res.FailedVisitFrac()), f3(finalFrac(res)),
				d0(res.UserFailovers), d0(res.ServerReparents), d0(res.TTLFallbacks))
		}
	}
	return t, nil
}

// FaultScenario runs every Section 5.3 system under one named built-in
// scenario (see fault.ScenarioNames) with failover enabled, reporting the
// robustness metrics side by side. It backs the experiment harness's
// -faults flag.
func FaultScenario(scale SimScale, name string) (*Table, error) {
	t := &Table{
		ID:     "fault-" + name,
		Title:  fmt.Sprintf("fault scenario %q across the Section 5.3 systems (failover on)", name),
		Note:   "paper Section 3.4 root causes replayed against every compared system",
		Header: []string{"system", "crashes", "recovered", "user_mean_s", "stale_frac", "failed_visit_frac", "mean_recovery_s", "reparents", "ttl_fallbacks"},
	}
	systems := core.Systems()
	results, err := scale.run(t, len(systems), func(i int) cell {
		sc := scale.Scenario
		sc.FaultScenario = name
		sc.Failover = true
		return cell{sys: systems[i], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for i, sys := range systems {
		res := results[i]
		t.AddRow(sys.Name, d0(res.Crashes), d0(res.Recoveries),
			f3(res.MeanUserInconsistency()), f4(res.StaleServeFrac()),
			f4(res.FailedVisitFrac()), f1(res.MeanRecoverySeconds()),
			d0(res.ServerReparents), d0(res.TTLFallbacks))
	}
	return t, nil
}
