package figures

import (
	"fmt"

	"cdnconsistency/internal/core"
	"cdnconsistency/internal/traceimport"
)

// ImportReplay replays an imported spec bundle across the six named
// systems: the inferred server map, TTLs, update rate, user population,
// and fault windows replace the synthetic deployment, so the comparison
// runs on a workload shaped by observed data rather than by the paper's
// defaults. Failover is enabled, since the bundle's fault windows model
// the trace's absence runs.
func ImportReplay(scale SimScale, b *traceimport.Bundle) (*Table, error) {
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
	systems := core.Systems()
	// Each run gets its own materialized options: the bundle's topology
	// must not be shared across concurrently running simulations.
	opts := make([][]core.Option, len(systems))
	for i := range opts {
		bopts, err := b.Options()
		if err != nil {
			return nil, fmt.Errorf("figures: import-replay: %w", err)
		}
		opts[i] = append([]core.Option{core.WithClusters(scale.Clusters), core.WithSeed(scale.Seed)},
			append(bopts, core.WithFailover())...)
	}
	results, err := scale.run(t, len(systems), func(i int) cell {
		return cell{sys: systems[i], opts: opts[i]}
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
