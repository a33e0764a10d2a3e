package cdn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// Property: any valid (method, infra, seed) combination produces a sane
// result — non-negative stats, consistent accounting, bounded fractions.
func TestPropertyRunInvariants(t *testing.T) {
	methods := []consistency.Method{
		consistency.MethodTTL, consistency.MethodPush, consistency.MethodInvalidation,
		consistency.MethodSelfAdaptive, consistency.MethodAdaptiveTTL,
	}
	infras := []consistency.Infra{
		consistency.InfraUnicast, consistency.InfraMulticast, consistency.InfraHybrid,
	}
	game := workload.GameConfig{
		Phases: []workload.Phase{
			{Name: "p", Duration: 5 * time.Minute, MeanGap: 25 * time.Second},
			{Name: "b", Duration: 2 * time.Minute, MeanGap: 0},
		},
		SizeKB: 1,
	}
	f := func(mIdx, iIdx uint8, seed int64) bool {
		m := methods[int(mIdx)%len(methods)]
		inf := infras[int(iIdx)%len(infras)]
		updates, err := workload.Schedule(game, seed)
		if err != nil {
			return false
		}
		res, err := Run(Config{
			Method:   m,
			Infra:    inf,
			Topology: topology.Config{Servers: 15, UsersPerServer: 1, Seed: seed},
			Clusters: 3,
			Updates:  updates,
			Seed:     seed,
			// The live auditor verifies the same predicates at cadence
			// mid-run; a violation surfaces as the run's error.
			Audit: &AuditOptions{},
		})
		if err != nil {
			t.Logf("%v/%v seed %d: %v", m, inf, seed, err)
			return false
		}
		// Offline, the result must satisfy the same shared predicates the
		// runtime auditor enforces (internal/audit): one property set, two
		// enforcement points.
		for name, series := range map[string][]float64{
			"ServerAvgInconsistency": res.ServerAvgInconsistency,
			"UserAvgInconsistency":   res.UserAvgInconsistency,
			"RecoverySeconds":        res.RecoverySeconds,
		} {
			if v := audit.CheckSeries(audit.Label{Format: name}, series); v != nil {
				t.Logf("%v/%v seed %d: %v", m, inf, seed, v)
				return false
			}
		}
		for name, v := range map[string]*audit.Violation{
			"observations": audit.CheckCount(audit.Label{Format: "inconsistent observations"},
				res.UserInconsistentObservations, res.UserObservations),
			"frac":       audit.CheckFraction("InconsistentObservationFrac", res.InconsistentObservationFrac()),
			"stale-frac": audit.CheckFraction("StaleServeFrac", res.StaleServeFrac()),
			"accounting": audit.CheckAccounting(res.Accounting),
		} {
			if v != nil {
				t.Logf("%v/%v seed %d: %s: %v", m, inf, seed, name, v)
				return false
			}
		}
		return res.AuditChecks > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The TTL method's mean catch-up tracks TTL/2 across a sweep — the
// theoretical relationship Section 3.4.1 relies on.
func TestTTLMeanTracksHalfTTL(t *testing.T) {
	for _, ttl := range []time.Duration{10 * time.Second, 20 * time.Second, 40 * time.Second} {
		ttl := ttl
		t.Run(ttl.String(), func(t *testing.T) {
			cfg := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
			cfg.ServerTTL = ttl
			res := mustRun(t, cfg)
			want := ttl.Seconds() / 2
			got := res.MeanServerInconsistency()
			if got < want*0.7 || got > want*1.5 {
				t.Errorf("mean = %.2fs, want ~%.1fs (TTL/2)", got, want)
			}
		})
	}
}

// Push delivers every update to every server exactly once per tree edge:
// total update messages = updates x servers in unicast.
func TestPushMessageCountExact(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodPush, consistency.InfraUnicast)
	res := mustRun(t, cfg)
	updates := len(cfg.Updates)
	want := updates * 80
	if res.UpdateMsgsToServers != want {
		t.Errorf("update msgs = %d, want %d (%d updates x 80 servers)",
			res.UpdateMsgsToServers, want, updates)
	}
	if res.UpdateMsgsFromProvider != want {
		t.Errorf("provider msgs = %d, want %d in unicast", res.UpdateMsgsFromProvider, want)
	}
}

// In multicast Push the provider sends only to its direct children; the
// total across the tree still covers every server once per update.
func TestPushMulticastMessageSplit(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodPush, consistency.InfraMulticast)
	cfg.TreeDegree = 2
	res := mustRun(t, cfg)
	updates := len(cfg.Updates)
	if res.UpdateMsgsToServers != updates*80 {
		t.Errorf("total update msgs = %d, want %d", res.UpdateMsgsToServers, updates*80)
	}
	if res.UpdateMsgsFromProvider != updates*2 {
		t.Errorf("provider msgs = %d, want %d (degree-2 root)", res.UpdateMsgsFromProvider, updates*2)
	}
}

// All servers converge to the final snapshot under every method when given
// slack and no failures (eventual consistency).
func TestEventualConsistencyAllMethods(t *testing.T) {
	for _, m := range []consistency.Method{
		consistency.MethodTTL, consistency.MethodPush, consistency.MethodInvalidation,
		consistency.MethodSelfAdaptive, consistency.MethodLease,
	} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			cfg := baseConfig(t, m, consistency.InfraUnicast)
			cfg.HorizonSlack = 10 * time.Minute
			res := mustRun(t, cfg)
			frac := float64(res.LiveServersAtFinalVersion) / float64(res.LiveServers)
			// Invalidation needs a visit after the last update; with 2
			// users per server at 10s cadence everyone gets one.
			if frac < 1 {
				t.Errorf("only %.0f%% of servers reached the final snapshot", frac*100)
			}
		})
	}
}

// Traffic cost in km*KB equals km x size for uniform payloads.
func TestAccountingKmKBRelation(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodPush, consistency.InfraUnicast)
	cfg.UpdateSizeKB = 3
	res := mustRun(t, cfg)
	up := res.Accounting.ByClass[netmodel.ClassUpdate]
	if math.Abs(up.KmKB-3*up.Km) > 1e-6*up.KmKB {
		t.Errorf("KmKB %.1f != 3 x Km %.1f", up.KmKB, up.Km)
	}
}

// Seeds are honored end to end: different seeds produce different runs.
func TestSeedsDiffer(t *testing.T) {
	mk := func(seed int64) *Result {
		updates, err := workload.Schedule(testGame(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, Config{
			Method:   consistency.MethodTTL,
			Infra:    consistency.InfraUnicast,
			Topology: topology.Config{Servers: 30, UsersPerServer: 1, Seed: seed},
			Updates:  updates,
			Seed:     seed,
		})
	}
	a, b := mk(1), mk(2)
	if a.Events == b.Events && fmt.Sprint(a.ServerAvgInconsistency) == fmt.Sprint(b.ServerAvgInconsistency) {
		t.Error("different seeds produced identical runs")
	}
}

// Cross-feature: self-adaptive under DNS routing completes and stays sane.
func TestSelfAdaptiveWithDNSRouting(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodSelfAdaptive, consistency.InfraUnicast)
	cfg.ResolverTTL = 30 * time.Second
	res := mustRun(t, cfg)
	if res.DNSVisits == 0 {
		t.Fatal("no DNS visits")
	}
	if f := res.InconsistentObservationFrac(); f < 0 || f > 1 {
		t.Fatalf("fraction %v", f)
	}
}

// Cross-feature: regime controller with user switching (every visit hits a
// random server, feeding every server's visit estimator).
func TestRegimeWithUserSwitching(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodRegime, consistency.InfraUnicast)
	cfg.UserSwitchEveryVisit = true
	res := mustRun(t, cfg)
	if res.UserObservations == 0 {
		t.Fatal("no observations")
	}
}
