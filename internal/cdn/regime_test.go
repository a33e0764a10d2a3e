package cdn

import (
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

func TestRegimeRequiresUnicast(t *testing.T) {
	for _, infra := range []consistency.Infra{consistency.InfraMulticast, consistency.InfraHybrid} {
		cfg := baseConfig(t, consistency.MethodRegime, infra)
		if _, err := Run(cfg); err == nil {
			t.Errorf("Regime on %v accepted", infra)
		}
	}
}

func TestRegimeRunsAndConverges(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodRegime, consistency.InfraUnicast)
	cfg.HorizonSlack = 10 * time.Minute
	res := mustRun(t, cfg)
	if len(res.ServerAvgInconsistency) != 80 {
		t.Fatalf("server stats = %d", len(res.ServerAvgInconsistency))
	}
	// Eventual consistency: all servers reach the final snapshot. TTL-
	// and invalidation-regime servers get there via polls/visits.
	frac := float64(res.LiveServersAtFinalVersion) / float64(res.LiveServers)
	if frac < 0.95 {
		t.Errorf("converged fraction = %.2f, want ~1", frac)
	}
}

// With hot content (many users, sparse updates), regime servers migrate to
// Push and beat plain TTL's consistency without Push's full message bill on
// cold phases.
func TestRegimeHotContentApproachesPush(t *testing.T) {
	game := workload.GameConfig{
		Phases: []workload.Phase{
			{Name: "live", Duration: 30 * time.Minute, MeanGap: 60 * time.Second},
		},
		SizeKB: 1,
	}
	updates, err := workload.Schedule(game, 5)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(m consistency.Method) Config {
		return Config{
			Method:   m,
			Infra:    consistency.InfraUnicast,
			Topology: topology.Config{Servers: 40, UsersPerServer: 4, Seed: 5},
			Updates:  updates,
			Seed:     5,
			// Visits every 10s x 4 users vs updates every 60s:
			// ratio ~24 -> Push regime.
		}
	}
	regime := mustRun(t, mk(consistency.MethodRegime))
	ttl := mustRun(t, mk(consistency.MethodTTL))
	if regime.MeanServerInconsistency() >= ttl.MeanServerInconsistency()/2 {
		t.Errorf("regime staleness %.2fs not well below TTL %.2fs",
			regime.MeanServerInconsistency(), ttl.MeanServerInconsistency())
	}
}

// With cold content (no users) and frequent updates, regime servers migrate
// to Invalidation and use far fewer update messages than Push.
func TestRegimeColdContentSavesMessages(t *testing.T) {
	game := workload.GameConfig{
		Phases: []workload.Phase{
			{Name: "busy", Duration: 30 * time.Minute, MeanGap: 5 * time.Second},
		},
		SizeKB: 1,
	}
	updates, err := workload.Schedule(game, 6)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(m consistency.Method) Config {
		return Config{
			Method:   m,
			Infra:    consistency.InfraUnicast,
			Topology: topology.Config{Servers: 40, UsersPerServer: 1, Seed: 6},
			Updates:  updates,
			UserTTL:  3 * time.Minute, // visits every 3 min vs updates every 5s
			Seed:     6,
		}
	}
	regime := mustRun(t, mk(consistency.MethodRegime))
	push := mustRun(t, mk(consistency.MethodPush))
	if regime.UpdateMsgsToServers >= push.UpdateMsgsToServers/2 {
		t.Errorf("regime msgs (%d) not well below push (%d)",
			regime.UpdateMsgsToServers, push.UpdateMsgsToServers)
	}
}

func TestRegimeDeterministic(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodRegime, consistency.InfraUnicast)
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Events != b.Events || a.UpdateMsgsToServers != b.UpdateMsgsToServers {
		t.Error("regime runs diverged")
	}
}

func TestRegimeWithCrashes(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodRegime, consistency.InfraUnicast)
	cfg.Faults = crashStops(10)
	res := mustRun(t, cfg)
	if res.LiveServers != 70 {
		t.Errorf("live servers = %d", res.LiveServers)
	}
}
