package cdn

import (
	"testing"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// stormSimulation builds and runs an audited sharded Push run over servers
// servers with five explicit users each — the update-storm shape at a
// chosen size — and returns the drained simulation, whose state a passing
// audit sweep can then be measured against.
func stormSimulation(tb testing.TB, servers int) *simulation {
	tb.Helper()
	updates, err := workload.Schedule(testGame(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := Config{
		Method:     consistency.MethodPush,
		Infra:      consistency.InfraUnicast,
		Topology:   topology.Config{Servers: servers, UsersPerServer: 5, Seed: 1},
		Updates:    updates[:20],
		Seed:       1,
		Shards:     2,
		ShardCells: 8,
		Audit:      &AuditOptions{},
	}.withDefaults()
	if err != nil {
		tb.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.run(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// A passing audit sweep allocates nothing: every per-item label is built
// only when its check fails, and the counter and ledger checks read state
// in place. A sweep runs at every cadence boundary, between a sharded
// run's windows, so its garbage would be paid on the critical path.
func TestAuditSweepAllocFree(t *testing.T) {
	s := stormSimulation(t, 40)
	if v := s.aud.check(); v != nil {
		t.Fatalf("healthy run failed its sweep: %v", v)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if v := s.aud.check(); v != nil {
			t.Fatalf("healthy run failed its sweep: %v", v)
		}
	}); allocs != 0 {
		t.Fatalf("a passing sweep allocated %.1f times, want 0", allocs)
	}
}

// BenchmarkAuditSweep measures one full audit sweep over the update-storm
// fleet: 850 servers with five explicit users each, sharded into 8 cells.
func BenchmarkAuditSweep(b *testing.B) {
	s := stormSimulation(b, 850)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := s.aud.check(); v != nil {
			b.Fatal(v)
		}
	}
}
