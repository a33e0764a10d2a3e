package cdn

import (
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// testGame is a short live event alternating play and silence so the
// self-adaptive method has something to adapt to (the paper's update
// pattern: bursts during the match, silence during breaks).
func testGame() workload.GameConfig {
	var phases []Phase
	for i := 0; i < 4; i++ {
		phases = append(phases,
			Phase{Name: "play", Duration: 5 * time.Minute, MeanGap: 15 * time.Second},
			Phase{Name: "break", Duration: 4 * time.Minute, MeanGap: 0},
		)
	}
	return workload.GameConfig{Phases: phases, SizeKB: 1, MinGap: time.Second}
}

// Phase aliases workload.Phase for brevity in the fixture above.
type Phase = workload.Phase

func baseConfig(t *testing.T, method consistency.Method, infra consistency.Infra) Config {
	t.Helper()
	updates, err := workload.Schedule(testGame(), 99)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Method:   method,
		Infra:    infra,
		Topology: topology.Config{Servers: 80, UsersPerServer: 2, Seed: 7},
		Clusters: 8, // ~10 servers per cluster, as in the paper's scale
		Updates:  updates,
		Seed:     7,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%v,%v): %v", cfg.Method, cfg.Infra, err)
	}
	return res
}

func TestRunAllMethodInfraCombinations(t *testing.T) {
	methods := []consistency.Method{
		consistency.MethodTTL, consistency.MethodPush,
		consistency.MethodInvalidation, consistency.MethodSelfAdaptive,
		consistency.MethodAdaptiveTTL,
	}
	infras := []consistency.Infra{
		consistency.InfraUnicast, consistency.InfraMulticast, consistency.InfraHybrid,
	}
	for _, m := range methods {
		for _, inf := range infras {
			m, inf := m, inf
			t.Run(m.String()+"/"+inf.String(), func(t *testing.T) {
				res := mustRun(t, baseConfig(t, m, inf))
				if len(res.ServerAvgInconsistency) != 80 {
					t.Fatalf("server stats = %d, want 80", len(res.ServerAvgInconsistency))
				}
				if len(res.UserAvgInconsistency) != 160 {
					t.Fatalf("user stats = %d, want 160", len(res.UserAvgInconsistency))
				}
				for i, v := range res.ServerAvgInconsistency {
					if v < 0 {
						t.Fatalf("server %d negative inconsistency %v", i, v)
					}
				}
				if res.Accounting.Total().Messages == 0 {
					t.Fatal("no traffic recorded")
				}
				if inf == consistency.InfraHybrid && res.Supernodes == 0 {
					t.Fatal("hybrid run elected no supernodes")
				}
				if res.Events == 0 {
					t.Fatal("no events processed")
				}
			})
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Method: consistency.Method(0), Infra: consistency.InfraUnicast}); err == nil {
		t.Error("invalid method accepted")
	}
	if _, err := Run(Config{Method: consistency.MethodTTL, Infra: consistency.Infra(0)}); err == nil {
		t.Error("invalid infra accepted")
	}
	cfg := Config{Method: consistency.MethodTTL, Infra: consistency.InfraUnicast,
		Topology: topology.Config{Servers: 0}}
	if _, err := Run(cfg); err == nil {
		t.Error("bad topology accepted")
	}
	cfg = Config{Method: consistency.MethodTTL, Infra: consistency.InfraUnicast,
		Topology: topology.Config{Servers: 3},
		Updates: []workload.Update{
			{Snapshot: 1, At: 10 * time.Second},
			{Snapshot: 2, At: 5 * time.Second},
		}}
	if _, err := Run(cfg); err == nil {
		t.Error("unordered updates accepted")
	}
	cfg.Updates = []workload.Update{{Snapshot: 9, At: time.Second}}
	if _, err := Run(cfg); err == nil {
		t.Error("out-of-range snapshot accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, baseConfig(t, consistency.MethodSelfAdaptive, consistency.InfraHybrid))
	b := mustRun(t, baseConfig(t, consistency.MethodSelfAdaptive, consistency.InfraHybrid))
	if a.Events != b.Events || a.UpdateMsgsToServers != b.UpdateMsgsToServers {
		t.Fatalf("runs differ: events %d vs %d, msgs %d vs %d",
			a.Events, b.Events, a.UpdateMsgsToServers, b.UpdateMsgsToServers)
	}
	for i := range a.ServerAvgInconsistency {
		if a.ServerAvgInconsistency[i] != b.ServerAvgInconsistency[i] {
			t.Fatalf("server %d inconsistency differs", i)
		}
	}
}

// Figure 14(a): in unicast, server inconsistency follows
// Push < Invalidation < TTL.
func TestFig14ServerOrdering(t *testing.T) {
	push := mustRun(t, baseConfig(t, consistency.MethodPush, consistency.InfraUnicast))
	inval := mustRun(t, baseConfig(t, consistency.MethodInvalidation, consistency.InfraUnicast))
	ttl := mustRun(t, baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast))

	p, i, tt := push.MeanServerInconsistency(), inval.MeanServerInconsistency(), ttl.MeanServerInconsistency()
	if !(p < i && i < tt) {
		t.Errorf("ordering violated: Push=%.3fs Invalidation=%.3fs TTL=%.3fs", p, i, tt)
	}
	// TTL's mean is about TTL/2 (plus poll-response latency).
	if tt < 20 || tt > 45 {
		t.Errorf("TTL mean = %.1fs, want ~30s (TTL/2)", tt)
	}
	// Push is network-latency scale.
	if p > 1 {
		t.Errorf("Push mean = %.3fs, want sub-second", p)
	}
}

// Figure 14(b): users see Push ~ Invalidation < TTL.
func TestFig14UserOrdering(t *testing.T) {
	push := mustRun(t, baseConfig(t, consistency.MethodPush, consistency.InfraUnicast))
	inval := mustRun(t, baseConfig(t, consistency.MethodInvalidation, consistency.InfraUnicast))
	ttl := mustRun(t, baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast))

	p, i, tt := push.MeanUserInconsistency(), inval.MeanUserInconsistency(), ttl.MeanUserInconsistency()
	if tt <= p || tt <= i {
		t.Errorf("TTL users (%.1fs) not worst: Push=%.1fs Invalidation=%.1fs", tt, p, i)
	}
	// Push and Invalidation differ by at most the visit period.
	if diff := i - p; diff < -10 || diff > 10 {
		t.Errorf("Invalidation-Push user gap = %.1fs, want within one visit period", diff)
	}
}

// Figure 15(a): the multicast tree amplifies TTL inconsistency with depth.
func TestFig15MulticastAmplifiesTTL(t *testing.T) {
	uni := mustRun(t, baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast))
	multi := mustRun(t, baseConfig(t, consistency.MethodTTL, consistency.InfraMulticast))
	if multi.TreeDepth < 3 {
		t.Fatalf("multicast depth = %d, want >= 3", multi.TreeDepth)
	}
	if multi.MeanServerInconsistency() <= uni.MeanServerInconsistency() {
		t.Errorf("multicast TTL (%.1fs) not above unicast (%.1fs)",
			multi.MeanServerInconsistency(), uni.MeanServerInconsistency())
	}
}

// Figure 16: multicast saves traffic cost (km*KB) over unicast for Push.
func TestFig16MulticastSavesTraffic(t *testing.T) {
	uni := mustRun(t, baseConfig(t, consistency.MethodPush, consistency.InfraUnicast))
	multi := mustRun(t, baseConfig(t, consistency.MethodPush, consistency.InfraMulticast))
	uc := uni.Accounting.Total().KmKB
	mc := multi.Accounting.Total().KmKB
	if mc >= uc {
		t.Errorf("multicast cost %.0f not below unicast %.0f", mc, uc)
	}
}

// Figure 17: raising the server TTL lowers consistency-maintenance cost.
func TestFig17CostFallsWithTTL(t *testing.T) {
	short := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	short.ServerTTL = 10 * time.Second
	long := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	long.ServerTTL = 60 * time.Second
	shortRes := mustRun(t, short)
	longRes := mustRun(t, long)
	if longRes.Accounting.Total().KmKB >= shortRes.Accounting.Total().KmKB {
		t.Errorf("cost with TTL=60s (%.0f) not below TTL=10s (%.0f)",
			longRes.Accounting.Total().KmKB, shortRes.Accounting.Total().KmKB)
	}
}

// Figure 18: Invalidation inconsistency grows and cost falls as the
// end-user TTL grows.
func TestFig18UserTTLTradeoff(t *testing.T) {
	fast := baseConfig(t, consistency.MethodInvalidation, consistency.InfraUnicast)
	fast.UserTTL = 10 * time.Second
	slow := baseConfig(t, consistency.MethodInvalidation, consistency.InfraUnicast)
	slow.UserTTL = 120 * time.Second
	fastRes := mustRun(t, fast)
	slowRes := mustRun(t, slow)
	if slowRes.MeanServerInconsistency() <= fastRes.MeanServerInconsistency() {
		t.Errorf("inconsistency with 120s visits (%.1fs) not above 10s visits (%.1fs)",
			slowRes.MeanServerInconsistency(), fastRes.MeanServerInconsistency())
	}
	if slowRes.Accounting.Total().KmKB >= fastRes.Accounting.Total().KmKB {
		t.Errorf("cost with 120s visits (%.0f) not below 10s visits (%.0f)",
			slowRes.Accounting.Total().KmKB, fastRes.Accounting.Total().KmKB)
	}
}

// Figure 19(a): large update packets degrade Push (provider uplink
// serialization) much more than TTL in unicast.
func TestFig19PacketSizeDegradesPush(t *testing.T) {
	mk := func(m consistency.Method, size float64) float64 {
		cfg := baseConfig(t, m, consistency.InfraUnicast)
		cfg.UpdateSizeKB = size
		cfg.Net = netmodel.Config{DefaultUplinkKBps: 2000}
		return mustRun(t, cfg).MeanServerInconsistency()
	}
	pushSmall, pushBig := mk(consistency.MethodPush, 1), mk(consistency.MethodPush, 500)
	ttlSmall, ttlBig := mk(consistency.MethodTTL, 1), mk(consistency.MethodTTL, 500)
	pushGrowth := pushBig - pushSmall
	ttlGrowth := ttlBig - ttlSmall
	if pushGrowth <= ttlGrowth {
		t.Errorf("push growth %.2fs not above ttl growth %.2fs", pushGrowth, ttlGrowth)
	}
	if pushBig <= pushSmall {
		t.Errorf("push did not degrade with size: %.3fs -> %.3fs", pushSmall, pushBig)
	}
}

// Figure 20(b): in multicast, TTL inconsistency grows with network size
// (deeper tree).
func TestFig20MulticastTTLGrowsWithSize(t *testing.T) {
	mk := func(servers int) *Result {
		cfg := baseConfig(t, consistency.MethodTTL, consistency.InfraMulticast)
		cfg.Topology = topology.Config{Servers: servers, UsersPerServer: 1, Seed: 7}
		return mustRun(t, cfg)
	}
	small := mk(20)
	big := mk(160)
	if big.TreeDepth <= small.TreeDepth {
		t.Fatalf("tree depth did not grow: %d -> %d", small.TreeDepth, big.TreeDepth)
	}
	if big.MeanServerInconsistency() <= small.MeanServerInconsistency() {
		t.Errorf("multicast TTL inconsistency did not grow with size: %.1fs -> %.1fs",
			small.MeanServerInconsistency(), big.MeanServerInconsistency())
	}
}

// Figure 22(a): update-message counts follow
// Push > Invalidation > TTL ~ Hybrid > HAT > Self.
func TestFig22MessageOrdering(t *testing.T) {
	run := func(m consistency.Method, inf consistency.Infra) *Result {
		return mustRun(t, baseConfig(t, m, inf))
	}
	push := run(consistency.MethodPush, consistency.InfraUnicast)
	inval := run(consistency.MethodInvalidation, consistency.InfraUnicast)
	ttl := run(consistency.MethodTTL, consistency.InfraUnicast)
	self := run(consistency.MethodSelfAdaptive, consistency.InfraUnicast)
	hybrid := run(consistency.MethodTTL, consistency.InfraHybrid)
	hat := run(consistency.MethodSelfAdaptive, consistency.InfraHybrid)

	p, i, tt := push.UpdateMsgsToServers, inval.UpdateMsgsToServers, ttl.UpdateMsgsToServers
	se, hy, ha := self.UpdateMsgsToServers, hybrid.UpdateMsgsToServers, hat.UpdateMsgsToServers

	if !(p > i) {
		t.Errorf("Push (%d) not above Invalidation (%d)", p, i)
	}
	if !(i > tt) {
		t.Errorf("Invalidation (%d) not above TTL (%d)", i, tt)
	}
	if !(tt > ha) {
		t.Errorf("TTL (%d) not above HAT (%d)", tt, ha)
	}
	if !(ha > se) {
		t.Errorf("HAT (%d) not above Self (%d)", ha, se)
	}
	// Hybrid ~ TTL (within 30%).
	if ratio := float64(hy) / float64(tt); ratio < 0.7 || ratio > 1.3 {
		t.Errorf("Hybrid/TTL message ratio = %.2f, want ~1", ratio)
	}
}

// Figure 22(b): the hybrid infrastructures unload the provider.
func TestFig22ProviderLoad(t *testing.T) {
	ttl := mustRun(t, baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast))
	hat := mustRun(t, baseConfig(t, consistency.MethodSelfAdaptive, consistency.InfraHybrid))
	if hat.UpdateMsgsFromProvider >= ttl.UpdateMsgsFromProvider/4 {
		t.Errorf("HAT provider msgs (%d) not well below unicast TTL (%d)",
			hat.UpdateMsgsFromProvider, ttl.UpdateMsgsFromProvider)
	}
}

// Figure 23: HAT's update network load (km) is the lightest of the
// TTL-family systems.
func TestFig23NetworkLoad(t *testing.T) {
	ttl := mustRun(t, baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast))
	self := mustRun(t, baseConfig(t, consistency.MethodSelfAdaptive, consistency.InfraUnicast))
	hat := mustRun(t, baseConfig(t, consistency.MethodSelfAdaptive, consistency.InfraHybrid))

	ttlKm := ttl.Accounting.ByClass[netmodel.ClassUpdate].Km
	selfKm := self.Accounting.ByClass[netmodel.ClassUpdate].Km
	hatKm := hat.Accounting.ByClass[netmodel.ClassUpdate].Km
	if hatKm >= ttlKm {
		t.Errorf("HAT update km (%.0f) not below TTL (%.0f)", hatKm, ttlKm)
	}
	if hatKm >= selfKm {
		t.Errorf("HAT update km (%.0f) not below Self (%.0f)", hatKm, selfKm)
	}
}

// Figure 24: with server switching every visit, Push and Invalidation show
// ~zero user-observed inconsistency; TTL the most; HAT below TTL.
func TestFig24InconsistencyObservations(t *testing.T) {
	run := func(m consistency.Method, inf consistency.Infra) float64 {
		cfg := baseConfig(t, m, inf)
		cfg.UserSwitchEveryVisit = true
		return mustRun(t, cfg).InconsistentObservationFrac()
	}
	push := run(consistency.MethodPush, consistency.InfraUnicast)
	ttl := run(consistency.MethodTTL, consistency.InfraUnicast)
	hat := run(consistency.MethodSelfAdaptive, consistency.InfraHybrid)

	if push > 0.01 {
		t.Errorf("Push inconsistency observations = %.4f, want ~0", push)
	}
	if ttl <= push {
		t.Errorf("TTL observations (%.4f) not above Push (%.4f)", ttl, push)
	}
	if hat >= ttl {
		t.Errorf("HAT observations (%.4f) not below TTL (%.4f)", hat, ttl)
	}
}

// The self-adaptive method must actually switch modes during the break.
func TestSelfAdaptiveSwitchesDuringSilence(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodSelfAdaptive, consistency.InfraUnicast)
	self := mustRun(t, cfg)
	ttlCfg := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	ttl := mustRun(t, ttlCfg)
	// The switch suppresses polls during the 8-minute break: Self must
	// use measurably fewer update messages than plain TTL.
	if self.UpdateMsgsToServers >= ttl.UpdateMsgsToServers {
		t.Errorf("Self msgs (%d) not below TTL (%d)", self.UpdateMsgsToServers, ttl.UpdateMsgsToServers)
	}
}

// Users always eventually converge to the final snapshot.
func TestUsersConverge(t *testing.T) {
	for _, m := range []consistency.Method{
		consistency.MethodTTL, consistency.MethodPush, consistency.MethodInvalidation,
		consistency.MethodSelfAdaptive,
	} {
		cfg := baseConfig(t, m, consistency.InfraUnicast)
		res := mustRun(t, cfg)
		if res.UserObservations == 0 {
			t.Fatalf("%v: no user observations", m)
		}
		for i, v := range res.UserAvgInconsistency {
			if v < 0 {
				t.Fatalf("%v: user %d negative inconsistency", m, i)
			}
		}
	}
}
