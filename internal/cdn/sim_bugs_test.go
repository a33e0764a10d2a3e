package cdn

import (
	"strings"
	"testing"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/topology"
)

// A configuration with zero scheduled updates must be rejected with a
// descriptive error, not an index-out-of-range panic.
func TestNewSimulationRejectsEmptyUpdates(t *testing.T) {
	cfg := Config{
		Method:   consistency.MethodPush,
		Infra:    consistency.InfraUnicast,
		Topology: topology.Config{Servers: 10, UsersPerServer: 1, Seed: 1},
		Seed:     1,
	}
	// Bypass withDefaults (which substitutes a default schedule) to hit
	// newSimulation directly with an empty schedule.
	s, err := newSimulation(cfg)
	if err == nil {
		t.Fatalf("newSimulation with zero updates succeeded: %+v", s)
	}
	if !strings.Contains(err.Error(), "updates") {
		t.Errorf("error %q does not mention updates", err)
	}
}

// Run still works with an empty schedule because withDefaults substitutes
// the default game day — the guard must not break that path.
func TestRunDefaultsEmptyUpdates(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.Updates = nil
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run with defaulted updates: %v", err)
	}
}

// failServer must clear the liveness flag on every path, including the
// no-repair ones, so later bookkeeping (Validate, TotalEdgeKm, repairs)
// never counts a dead server.
func TestFailServerClearsLivenessWithoutRepair(t *testing.T) {
	cases := []struct {
		name   string
		infra  consistency.Infra
		repair bool
	}{
		{"unicast no-repair", consistency.InfraUnicast, false},
		{"unicast repair-flag", consistency.InfraUnicast, true},
		{"multicast no-repair", consistency.InfraMulticast, false},
		{"multicast repair", consistency.InfraMulticast, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t, consistency.MethodPush, tc.infra)
			cfg.RepairTree = tc.repair
			cfg.TreeDegree = 2
			full, err := cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSimulation(full)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []int{3, 9, 17} {
				s.failServer(v)
				if s.alive[v] {
					t.Errorf("alive[%d] still set after failServer", v)
				}
				if !s.nodes[v].down {
					t.Errorf("node %d not marked down", v)
				}
			}
			// Failing an already-down server must be a no-op.
			s.failServer(3)
		})
	}
}

// After multiple sequential repairs the tree must stay a valid
// degree-bounded structure over live nodes, and no live node may sit under
// a downed parent.
func TestSequentialRepairsKeepTreeValid(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodPush, consistency.InfraMulticast)
	cfg.TreeDegree = 2
	cfg.RepairTree = true
	full, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSimulation(full)
	if err != nil {
		t.Fatal(err)
	}
	victims := []int{5, 12, 40, 7, 33, 21, 60, 2}
	for _, v := range victims {
		s.failServer(v)
		if err := s.tree.Validate(full.TreeDegree, s.alive); err != nil {
			t.Fatalf("tree invalid after failing %d: %v", v, err)
		}
	}
	for i := 1; i < len(s.nodes); i++ {
		if !s.alive[i] {
			continue
		}
		p := s.tree.Parent(i)
		if p > 0 && s.nodes[p].down {
			t.Errorf("live node %d attached under downed server %d", i, p)
		}
	}
}

// End-to-end: a full run with repairs enabled ends with a valid tree over
// live nodes and no live node parked under a dead parent.
func TestRunWithCrashesEndsWithValidLiveTree(t *testing.T) {
	cfg := baseConfig(t, consistency.MethodPush, consistency.InfraMulticast)
	cfg.TreeDegree = 2
	cfg.Faults = crashStops(10)
	cfg.RepairTree = true
	full, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSimulation(full)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedServers != 10 {
		t.Fatalf("FailedServers = %d, want 10", res.FailedServers)
	}
	if err := s.tree.Validate(full.TreeDegree, s.alive); err != nil {
		t.Errorf("tree invalid after run: %v", err)
	}
	for i := 1; i < len(s.nodes); i++ {
		if s.nodes[i].down != !s.alive[i] {
			t.Errorf("node %d: down=%v but alive=%v", i, s.nodes[i].down, s.alive[i])
		}
		if !s.alive[i] {
			continue
		}
		if p := s.tree.Parent(i); p > 0 && s.nodes[p].down {
			t.Errorf("live node %d attached under downed server %d", i, p)
		}
	}
}
