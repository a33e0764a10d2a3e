package figures

import (
	"fmt"

	"cdnconsistency/internal/core"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/traceimport"
)

// ImportReplay replays an imported spec bundle, read from path, across the
// six named systems: the inferred server map, TTLs, update rate, user
// population, and fault windows replace the synthetic deployment, so the
// comparison runs on a workload shaped by observed data rather than by the
// paper's defaults. Failover is enabled, since the bundle's fault windows
// model the trace's absence runs.
func ImportReplay(scale SimScale, path string, b *traceimport.Bundle) (*Table, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("figures: import-replay: %w", err)
	}
	s := b.Summary
	t := &Table{
		ID:    "import-replay",
		Title: "trace replay: named systems on the imported deployment",
		Note: fmt.Sprintf("inferred spec: %d servers at %d sites, %d users, server TTL %v, ~%.0f updates/day over %v, %d fault windows",
			s.Servers, s.Sites, s.Users, s.ServerTTL.D(), s.UpdatesPerDay, s.DayLength.D(), len(b.CrashWindows())),
		Header: []string{"system", "server_mean_s", "server_p5/med/p95", "user_mean_s", "user_p5/med/p95", "msgs_to_servers", "crashes"},
	}
	// The bundle fixes the deployment; the scale adds its cluster count and
	// auditor. Options materializes the bundle's topology per run.
	base := scale.Scenario
	sc := plan.Scenario{Import: path, Clusters: base.Clusters, Failover: true, Audit: base.Audit, AuditCadence: base.AuditCadence}
	sc.SetImportBundle(b)
	systems := core.Systems()
	results, err := scale.run(t, len(systems), func(i int) cell {
		return cell{sys: systems[i], sc: sc}
	})
	if err != nil {
		return nil, err
	}
	for i, sys := range systems {
		row := append([]string{sys.Name}, inconsistencyCells(results[i])...)
		t.AddRow(append(row, d0(results[i].UpdateMsgsToServers), d0(results[i].Crashes))...)
	}
	return t, nil
}
