package core

import (
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

func quickGame() workload.GameConfig {
	return workload.GameConfig{
		Phases: []workload.Phase{
			{Name: "play", Duration: 4 * time.Minute, MeanGap: 20 * time.Second},
			{Name: "break", Duration: 3 * time.Minute, MeanGap: 0},
			{Name: "play", Duration: 4 * time.Minute, MeanGap: 20 * time.Second},
		},
		SizeKB: 1,
	}
}

func quickOpts(extra ...Option) []Option {
	return append([]Option{
		WithServers(30),
		WithUsersPerServer(2),
		WithGame(quickGame()),
		WithSeed(3),
		WithClusters(5),
	}, extra...)
}

func TestSystemsMatchPaperOrder(t *testing.T) {
	want := []string{"Push", "Invalidation", "TTL", "Self", "Hybrid", "HAT"}
	got := Systems()
	if len(got) != len(want) {
		t.Fatalf("systems = %d", len(got))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Errorf("system %d = %s, want %s", i, s.Name, want[i])
		}
	}
}

func TestSystemByName(t *testing.T) {
	s, err := SystemByName("HAT")
	if err != nil {
		t.Fatal(err)
	}
	if s.Method != consistency.MethodSelfAdaptive || s.Infra != consistency.InfraHybrid {
		t.Errorf("HAT = %+v", s)
	}
	if _, err := SystemByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestParseSystem(t *testing.T) {
	for _, name := range []string{"Push", "Invalidation", "TTL", "Self", "Hybrid", "HAT",
		"TTL/Multicast", "Push/Broadcast", "Lease/Unicast", "Regime/Unicast", "AdaptiveTTL/Hybrid"} {
		if _, err := ParseSystem(name); err != nil {
			t.Errorf("ParseSystem(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "ttl", "TTL/", "/Unicast", "TTL/Unicast/Extra", "HAT/Hybrid", "Self/"} {
		if _, err := ParseSystem(name); err == nil {
			t.Errorf("ParseSystem(%q) accepted", name)
		}
	}
	got, err := ParseSystem("Self/Multicast")
	if err != nil {
		t.Fatal(err)
	}
	want := System{Name: "Self/Multicast", Method: consistency.MethodSelfAdaptive, Infra: consistency.InfraMulticast}
	if got != want {
		t.Errorf("ParseSystem(Self/Multicast) = %+v, want %+v", got, want)
	}
	if got, _ := ParseSystem("HAT"); got != SystemHAT {
		t.Errorf("ParseSystem(HAT) = %+v, want %+v", got, SystemHAT)
	}
}

func TestRunAppliesOptions(t *testing.T) {
	res, err := Run(SystemTTL, quickOpts(WithServerTTL(20*time.Second), WithUserTTL(15*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerAvgInconsistency) != 30 {
		t.Errorf("servers = %d, want 30", len(res.ServerAvgInconsistency))
	}
	if len(res.UserAvgInconsistency) != 60 {
		t.Errorf("users = %d, want 60", len(res.UserAvgInconsistency))
	}
	// TTL 20s -> mean catch-up ~10s.
	m := res.MeanServerInconsistency()
	if m < 5 || m > 20 {
		t.Errorf("mean inconsistency %.1fs, want ~10s for TTL=20s", m)
	}
}

func TestRunHAT(t *testing.T) {
	res, err := RunHAT(quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supernodes != 5 {
		t.Errorf("supernodes = %d, want 5", res.Supernodes)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	if _, err := Run(System{Name: "bad"}, quickOpts()...); err == nil {
		t.Error("invalid system accepted")
	}
	if _, err := Run(SystemTTL, WithServers(-1)); err == nil {
		t.Error("negative servers accepted")
	}
}

// A game that publishes nothing must fail the run by name. Left empty, the
// schedule would fall back to the paper's default day and the run would
// report that day's numbers as the game's.
func TestWithGameRejectsEmptyDraw(t *testing.T) {
	games := map[string]workload.GameConfig{
		"phase-less": {},
		"silent":     {Phases: []workload.Phase{{Name: "quiet", Duration: 10 * time.Minute}}},
	}
	for name, game := range games {
		opts := []Option{WithServers(10), WithUsersPerServer(1), WithGame(game)}
		_, runErr := Run(SystemTTL, opts...)
		_, keyErr := Key(SystemTTL, opts...)
		for what, err := range map[string]error{
			"Run": runErr, "Validate": Validate(SystemTTL, opts...), "Key": keyErr,
		} {
			if err == nil || !strings.Contains(err.Error(), "game [") {
				t.Errorf("%s game: %s error %v, want one naming the game", name, what, err)
			}
		}
	}
	if _, err := Run(SystemTTL, quickOpts()...); err != nil {
		t.Errorf("a game that publishes: %v", err)
	}
}

// WithGame draws with the run's final seed, so where it sits among the
// options does not change the run: the game drawn before and after
// WithSeed(7) is the seed-7 schedule, not the default seed's.
func TestWithGameOptionOrder(t *testing.T) {
	g := quickGame()
	gameFirst, err := Key(SystemPush, WithGame(g), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	seedFirst, err := Key(SystemPush, WithSeed(7), WithGame(g))
	if err != nil {
		t.Fatal(err)
	}
	if gameFirst != seedFirst {
		t.Error("Key(WithGame, WithSeed(7)) != Key(WithSeed(7), WithGame)")
	}
	updates, err := workload.Schedule(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Key(SystemPush, WithSeed(7), WithUpdates(updates))
	if err != nil {
		t.Fatal(err)
	}
	if gameFirst != explicit {
		t.Error("WithGame before WithSeed(7) did not draw the seed-7 schedule")
	}
}

// comparison holds one system's result in a matrix run.
type comparison struct {
	System System
	Result *cdn.Result
}

// runAll executes every Section 5.3 system over one shared topology and
// update schedule so the results are directly comparable.
func runAll(opts ...Option) ([]comparison, error) {
	base, err := configure(SystemTTL, opts)
	if err != nil {
		return nil, err
	}
	topo, err := topology.Generate(base.Topology)
	if err != nil {
		return nil, err
	}
	updates := base.Updates
	if len(updates) == 0 {
		if updates, err = workload.Schedule(workload.DefaultGame(), base.Seed); err != nil {
			return nil, err
		}
	}
	var out []comparison
	for _, sys := range Systems() {
		res, err := Run(sys, append(append([]Option(nil), opts...), WithTopology(topo), WithUpdates(updates))...)
		if err != nil {
			return nil, err
		}
		out = append(out, comparison{System: sys, Result: res})
	}
	return out, nil
}

func TestRunAllSharedInputs(t *testing.T) {
	comps, err := runAll(quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 6 {
		t.Fatalf("comparisons = %d", len(comps))
	}
	// Shared topology: every run reports the same server count.
	for _, c := range comps {
		if len(c.Result.ServerAvgInconsistency) != 30 {
			t.Errorf("%s servers = %d", c.System.Name, len(c.Result.ServerAvgInconsistency))
		}
	}
	// The headline orderings of Figures 22(a)/23 hold on the matrix.
	byName := map[string]*comparison{}
	for i := range comps {
		byName[comps[i].System.Name] = &comps[i]
	}
	push := byName["Push"].Result.UpdateMsgsToServers
	ttl := byName["TTL"].Result.UpdateMsgsToServers
	self := byName["Self"].Result.UpdateMsgsToServers
	hat := byName["HAT"].Result.UpdateMsgsToServers
	if !(push > ttl && ttl > hat && hat > self) {
		t.Errorf("message ordering violated: Push=%d TTL=%d HAT=%d Self=%d", push, ttl, hat, self)
	}
	hatKm := byName["HAT"].Result.Accounting.ByClass[netmodel.ClassUpdate].Km
	ttlKm := byName["TTL"].Result.Accounting.ByClass[netmodel.ClassUpdate].Km
	if hatKm >= ttlKm {
		t.Errorf("HAT update km %.0f not below TTL %.0f", hatKm, ttlKm)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	a, err := Run(SystemHAT, quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(SystemHAT, quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.UpdateMsgsToServers != b.UpdateMsgsToServers {
		t.Error("identical runs diverged")
	}
}

func TestAllOptionsApply(t *testing.T) {
	// Exercise every option end to end on one small run.
	res, err := Run(
		System{Name: "Lease", Method: consistency.MethodLease, Infra: consistency.InfraUnicast},
		quickOpts(
			WithUpdateSizeKB(4),
			WithNetConfig(netmodel.Config{DefaultUplinkKBps: 5000}),
		)...,
	)
	if err != nil {
		t.Fatal(err)
	}
	up := res.Accounting.ByClass[netmodel.ClassUpdate]
	if up.Messages > 0 && up.KB/float64(up.Messages) != 4 {
		t.Errorf("update size option not applied: %.1f KB/msg", up.KB/float64(up.Messages))
	}

	res, err = Run(SystemTTL, quickOpts(
		WithDNSRouting(20*time.Second),
		WithFaults(fault.Spec{RandomCrashes: &fault.RandomCrashes{Count: 3}}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.DNSVisits == 0 || res.FailedServers != 3 {
		t.Errorf("DNS/failure options not applied: visits=%d failed=%d", res.DNSVisits, res.FailedServers)
	}

	res, err = Run(SystemTTL, quickOpts(WithUserSwitching())...)
	if err != nil {
		t.Fatal(err)
	}
	if res.UserObservations == 0 {
		t.Error("switching run had no observations")
	}

	multi, err := Run(
		System{Name: "m", Method: consistency.MethodTTL, Infra: consistency.InfraMulticast},
		quickOpts(WithTreeDegree(6))...,
	)
	if err != nil {
		t.Fatal(err)
	}
	binary, err := Run(
		System{Name: "m", Method: consistency.MethodTTL, Infra: consistency.InfraMulticast},
		quickOpts(WithTreeDegree(2))...,
	)
	if err != nil {
		t.Fatal(err)
	}
	if multi.TreeDepth >= binary.TreeDepth {
		t.Errorf("degree-6 depth %d not below degree-2 depth %d", multi.TreeDepth, binary.TreeDepth)
	}

	pushMulti := System{Name: "pm", Method: consistency.MethodPush, Infra: consistency.InfraMulticast}
	repaired, err := Run(pushMulti, quickOpts(WithTreeDegree(2), WithTreeRepair(),
		WithFaults(fault.Spec{RandomCrashes: &fault.RandomCrashes{Count: 4}}))...)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.FailedServers != 4 || repaired.LiveServersAtFinalVersion != repaired.LiveServers {
		t.Errorf("repaired tree: failed=%d, %d of %d live servers at final version",
			repaired.FailedServers, repaired.LiveServersAtFinalVersion, repaired.LiveServers)
	}
	// Tree repair mutates the multicast tree, which the sharded engine's
	// static partition forbids: rejection proves the option is applied.
	if _, err := Run(pushMulti, quickOpts(WithTreeRepair(), WithShards(1))...); err == nil {
		t.Error("sharded multicast run accepted WithTreeRepair")
	}

	hat, err := RunHAT(quickOpts(WithSupernodeDegree(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if hat.Supernodes != 5 {
		t.Errorf("supernodes = %d", hat.Supernodes)
	}
}
