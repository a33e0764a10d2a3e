package cdn

import (
	"testing"

	"cdnconsistency/internal/consistency"
)

func TestLeaseRequiresUnicast(t *testing.T) {
	for _, infra := range []consistency.Infra{consistency.InfraMulticast, consistency.InfraHybrid} {
		cfg := baseConfig(t, consistency.MethodLease, infra)
		if _, err := Run(cfg); err == nil {
			t.Errorf("Lease on %v accepted", infra)
		}
	}
}

func TestBroadcastRequiresPush(t *testing.T) {
	for _, m := range []consistency.Method{consistency.MethodTTL, consistency.MethodInvalidation, consistency.MethodSelfAdaptive} {
		cfg := baseConfig(t, m, consistency.InfraBroadcast)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%v on Broadcast accepted", m)
		}
	}
}

func TestLeaseRuns(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodLease, consistency.InfraUnicast)
	res := mustRun(t, cfg)
	if len(res.ServerAvgInconsistency) != 80 {
		t.Fatalf("server stats = %d", len(res.ServerAvgInconsistency))
	}
	if res.UpdateMsgsToServers == 0 {
		t.Fatal("no update messages under lease")
	}
}

// While content is hot (visits every ~5s per server vs 60s leases), leases
// stay renewed and the method behaves like Push: near-zero staleness.
func TestLeaseNearPushConsistencyWhenHot(t *testing.T) {
	lease := mustRun(t, baseConfig(t, consistency.MethodLease, consistency.InfraUnicast))
	ttl := mustRun(t, baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast))
	if l := lease.MeanServerInconsistency(); l > 5 {
		t.Errorf("lease staleness = %.2fs, want near-push", l)
	}
	if lease.MeanServerInconsistency() >= ttl.MeanServerInconsistency() {
		t.Errorf("lease (%.2fs) not better than TTL (%.2fs)",
			lease.MeanServerInconsistency(), ttl.MeanServerInconsistency())
	}
}

// With no visits, leases expire and pushes stop — unlike plain Push, the
// provider does not waste messages on idle replicas.
func TestLeaseSavesMessagesWhenIdle(t *testing.T) {
	mk := func(m consistency.Method) Config {
		cfg := baseConfig(t, m, consistency.InfraUnicast)
		cfg.Topology.UsersPerServer = 0
		return cfg
	}
	lease := mustRun(t, mk(consistency.MethodLease))
	push := mustRun(t, mk(consistency.MethodPush))
	if lease.UpdateMsgsToServers >= push.UpdateMsgsToServers/2 {
		t.Errorf("idle lease msgs (%d) not well below push (%d)",
			lease.UpdateMsgsToServers, push.UpdateMsgsToServers)
	}
}

func TestBroadcastRuns(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodPush, consistency.InfraBroadcast)
	cfg.Clusters = 8
	res := mustRun(t, cfg)
	if len(res.ServerAvgInconsistency) != 80 {
		t.Fatalf("server stats = %d", len(res.ServerAvgInconsistency))
	}
	// Broadcast consistency is push-fast.
	if m := res.MeanServerInconsistency(); m > 5 {
		t.Errorf("broadcast staleness = %.2fs, want push-fast", m)
	}
}

// The paper's reason for dismissing broadcast: redundant messages. Flooding
// a cluster of size m costs ~m^2 messages per update vs m for push.
func TestBroadcastMessageBlowup(t *testing.T) {
	bcast := baseConfig(t, consistency.MethodPush, consistency.InfraBroadcast)
	bcast.Clusters = 8 // ~10 servers per cluster
	push := baseConfig(t, consistency.MethodPush, consistency.InfraUnicast)
	b := mustRun(t, bcast)
	p := mustRun(t, push)
	if b.UpdateMsgsToServers < 4*p.UpdateMsgsToServers {
		t.Errorf("broadcast msgs (%d) not >> push msgs (%d)",
			b.UpdateMsgsToServers, p.UpdateMsgsToServers)
	}
	// Every live server still converges to the final snapshot.
	if b.LiveServersAtFinalVersion != b.LiveServers {
		t.Errorf("broadcast left %d of %d servers behind",
			b.LiveServers-b.LiveServersAtFinalVersion, b.LiveServers)
	}
}

func TestBroadcastSurvivesFailures(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodPush, consistency.InfraBroadcast)
	cfg.Clusters = 8
	cfg.Faults = crashStops(10)
	res := mustRun(t, cfg)
	if res.LiveServers != 70 {
		t.Fatalf("live servers = %d", res.LiveServers)
	}
	// Flooding is failure-tolerant as long as the seed survives; most
	// live servers should still converge.
	frac := float64(res.LiveServersAtFinalVersion) / float64(res.LiveServers)
	if frac < 0.7 {
		t.Errorf("converged fraction = %.2f after failures, want most", frac)
	}
}

func TestLeaseDeterministic(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodLease, consistency.InfraUnicast)
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.UpdateMsgsToServers != b.UpdateMsgsToServers || a.Events != b.Events {
		t.Error("lease runs diverged")
	}
}
