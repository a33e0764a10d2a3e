package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/workload"
)

// shardOpts is the sharded-engine fixture: 12 servers holding 110 users in
// weighted cohorts over a four-period game, with visit accounting on and,
// for a named scenario, its faults plus failover.
func shardOpts(t *testing.T, scenario string) []Option {
	t.Helper()
	const seed = 3
	pop, err := workload.GeneratePopulation(workload.PopulationConfig{
		Servers: 12, TotalUsers: 110, Alpha: 1.2, CohortsPerServer: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var phases []workload.Phase
	for i := 0; i < 4; i++ {
		phases = append(phases,
			workload.Phase{Name: "play", Duration: 5 * time.Minute, MeanGap: 15 * time.Second},
			workload.Phase{Name: "break", Duration: 4 * time.Minute, MeanGap: 0},
		)
	}
	opts := []Option{
		WithServers(12),
		WithUsersPerServer(1),
		WithGame(workload.GameConfig{Phases: phases, SizeKB: 1, MinGap: time.Second}),
		WithSeed(seed),
		WithClusters(4),
		WithPopulation(pop),
		WithUserModel(cdn.UserModelCohort),
		WithVisitAccounting(),
	}
	if scenario != "" {
		spec, err := fault.Scenario(scenario)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithFaults(spec), WithFailover())
	}
	return opts
}

// TestShardCountInvariance holds WithShards to its contract: every n >= 1
// runs the same simulation. perfbench's update-storm passes the machine's CPU
// count, so its pinned digests hold on any machine only if n beyond on/off
// reaches nothing. Four systems (multicast repair paths are serial-only)
// run under every built-in fault scenario plus fault-free, and every Result
// field — counters, per-user and per-server series, the traffic ledger, the
// processed-event count — must match the WithShards(1) run exactly.
func TestShardCountInvariance(t *testing.T) {
	scenarios := append([]string{""}, fault.ScenarioNames()...)
	for _, sys := range []System{SystemTTL, SystemInvalidation, SystemPush, SystemHAT} {
		for _, scenario := range scenarios {
			name := sys.Name + "/none"
			if scenario != "" {
				name = sys.Name + "/" + scenario
			}
			sys, scenario := sys, scenario
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var base *cdn.Result
				for _, n := range []int{1, 2, runtime.NumCPU()} {
					res, err := Run(sys, append(shardOpts(t, scenario), WithShards(n))...)
					if err != nil {
						t.Fatalf("WithShards(%d): %v", n, err)
					}
					if base == nil {
						base = res
						continue
					}
					if !reflect.DeepEqual(base, res) {
						t.Errorf("WithShards(%d) diverged from WithShards(1):\n  1: %+v\n  %d: %+v",
							n, base, n, res)
					}
				}
			})
		}
	}
}

// TestWithShardsKey: the run key, which result caches are indexed by, sees
// only whether the sharded engine is on. Every n <= 0 is the serial run and
// every n >= 1 is one sharded run, and the two never share a key.
func TestWithShardsKey(t *testing.T) {
	key := func(t *testing.T, opts ...Option) string {
		t.Helper()
		k, err := Key(SystemTTL, quickOpts(opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	serial, sharded := key(t), key(t, WithShards(1))
	if serial == sharded {
		t.Fatal("serial and sharded runs share a key")
	}
	for _, n := range []int{-1, 0, 1, 2, 64} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			want := serial
			if n >= 1 {
				want = sharded
			}
			if got := key(t, WithShards(n)); got != want {
				t.Errorf("WithShards(%d) key = %s, want %s", n, got, want)
			}
		})
	}
}
