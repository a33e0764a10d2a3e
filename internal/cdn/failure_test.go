package cdn

import (
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
)

// crashStops fails n distinct random servers for good inside the middle
// third of the run.
func crashStops(n int) *fault.Spec {
	return &fault.Spec{RandomCrashes: &fault.RandomCrashes{Count: n}}
}

func TestFailureConfigValidation(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.Faults = crashStops(-1)
	if _, err := Run(cfg); err == nil {
		t.Error("negative crash count accepted")
	}
	cfg = baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.ResolverTTL = 30 * time.Second
	cfg.UserSwitchEveryVisit = true
	if _, err := Run(cfg); err == nil {
		t.Error("DNS routing + switching accepted")
	}
	cfg = baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.ResolverTTL = -time.Second
	if _, err := Run(cfg); err == nil {
		t.Error("negative resolver TTL accepted")
	}
}

func TestFailuresCrashStopServers(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.Faults = crashStops(10)
	res := mustRun(t, cfg)
	if res.FailedServers != 10 {
		t.Errorf("FailedServers = %d, want 10", res.FailedServers)
	}
	if res.LiveServers != 70 {
		t.Errorf("LiveServers = %d, want 70", res.LiveServers)
	}
}

func TestFailuresCappedAtServerCount(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodPush, consistency.InfraUnicast)
	cfg.Faults = crashStops(1000)
	res := mustRun(t, cfg)
	if res.FailedServers != 80 {
		t.Errorf("FailedServers = %d, want 80", res.FailedServers)
	}
	if res.LiveServers != 0 {
		t.Errorf("LiveServers = %d, want 0", res.LiveServers)
	}
}

// The paper's multicast criticism: failures break tree connectivity and
// updates stop propagating into the orphaned subtree — unless the tree is
// repaired.
func TestMulticastFailureBreaksPropagationRepairRestoresIt(t *testing.T) {
	run := func(repair bool) *Result {
		cfg := baseConfig(t, consistency.MethodPush, consistency.InfraMulticast)
		cfg.TreeDegree = 2 // deep tree: failures strand large subtrees
		cfg.Faults = crashStops(12)
		cfg.RepairTree = repair
		return mustRun(t, cfg)
	}
	broken := run(false)
	repaired := run(true)

	brokenFrac := float64(broken.LiveServersAtFinalVersion) / float64(broken.LiveServers)
	repairedFrac := float64(repaired.LiveServersAtFinalVersion) / float64(repaired.LiveServers)
	if repairedFrac <= brokenFrac {
		t.Errorf("repair did not help: %.2f (repaired) vs %.2f (broken)", repairedFrac, brokenFrac)
	}
	if repairedFrac < 0.95 {
		t.Errorf("repaired tree final-version fraction = %.2f, want ~1", repairedFrac)
	}
	if brokenFrac > 0.9 {
		t.Errorf("unrepaired tree final-version fraction = %.2f, want visibly degraded", brokenFrac)
	}
}

// Unicast is immune to relay failures: every live server still gets pushes.
func TestUnicastUnaffectedByOtherServersFailures(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodPush, consistency.InfraUnicast)
	cfg.Faults = crashStops(20)
	res := mustRun(t, cfg)
	if res.LiveServersAtFinalVersion != res.LiveServers {
		t.Errorf("live servers at final version = %d of %d, want all",
			res.LiveServersAtFinalVersion, res.LiveServers)
	}
}

// TTL pollers ride out dead relay parents via timeouts: the run completes
// and live servers keep making progress wherever their parent chain is live.
func TestTTLWithCrashesCompletes(t *testing.T) {
	for _, infra := range []consistency.Infra{consistency.InfraUnicast, consistency.InfraMulticast, consistency.InfraHybrid} {
		cfg := baseConfig(t, consistency.MethodTTL, infra)
		cfg.Faults = crashStops(8)
		res := mustRun(t, cfg)
		if res.LiveServers == 0 {
			t.Fatalf("%v: no live servers", infra)
		}
	}
}

func TestSelfAdaptiveWithCrashesCompletes(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodSelfAdaptive, consistency.InfraHybrid)
	cfg.Faults = crashStops(8)
	res := mustRun(t, cfg)
	if res.LiveServers != 72 {
		t.Errorf("LiveServers = %d, want 72", res.LiveServers)
	}
}

func TestInvalidationFetchFailureServesStale(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodInvalidation, consistency.InfraMulticast)
	cfg.Faults = crashStops(10)
	res := mustRun(t, cfg)
	// The run must complete with users still observing content.
	if res.UserObservations == 0 {
		t.Fatal("no user observations")
	}
}

func TestDNSRoutingRedirects(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.ResolverTTL = 30 * time.Second
	res := mustRun(t, cfg)
	if res.DNSVisits == 0 {
		t.Fatal("no DNS-routed visits")
	}
	rate := float64(res.DNSRedirects) / float64(res.DNSVisits)
	// With a 30s resolver TTL and 10s visits at most 1/3 of visits can
	// re-resolve; some re-resolutions return the same server.
	if rate <= 0 || rate > 0.34 {
		t.Errorf("redirect rate = %.3f, want in (0, 0.34]", rate)
	}
}

// DNS-routed users see self-inconsistency under TTL (redirected onto stale
// replicas) but not under Push.
func TestDNSRoutingInconsistencyOrdering(t *testing.T) {
	run := func(m consistency.Method) float64 {
		cfg := baseConfig(t, m, consistency.InfraUnicast)
		cfg.ResolverTTL = 20 * time.Second
		return mustRun(t, cfg).InconsistentObservationFrac()
	}
	push := run(consistency.MethodPush)
	ttl := run(consistency.MethodTTL)
	if push > 0.01 {
		t.Errorf("Push DNS inconsistency = %.4f, want ~0", push)
	}
	if ttl <= push {
		t.Errorf("TTL (%.4f) not above Push (%.4f) under DNS routing", ttl, push)
	}
}

// DNS-routed users converge on nearby servers, so their visits stay inside
// a geographic neighbourhood.
func TestDNSRoutingDeterministic(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.ResolverTTL = 30 * time.Second
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.DNSRedirects != b.DNSRedirects || a.DNSVisits != b.DNSVisits {
		t.Errorf("DNS runs diverged: %d/%d vs %d/%d",
			a.DNSRedirects, a.DNSVisits, b.DNSRedirects, b.DNSVisits)
	}
}
