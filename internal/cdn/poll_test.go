package cdn

import (
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// TestUnansweredPollRetries holds the poll timeout to both of its duties.
// Under crash and partition faults, a poll that gets no answer must still
// time out and retry. The crash cases run TTL over a multicast tree with
// Failover: only three timeouts in a row reparent a child off its dead
// relay. The partition cases lose polls of servers in cut-off ISPs: only the
// retry restarts a poll loop after its request was dropped. In both, every
// live server must end at the final version.
//
// After a fault-free run, no answered poll may keep a live timeout: every
// accepted response cancels its timeout. Each poll record the run uses comes
// from a seeded free list, so the test can check every one of them.
func TestUnansweredPollRetries(t *testing.T) {
	for _, scenario := range []string{"crash", "partition"} {
		for _, sharded := range []bool{false, true} {
			name := scenario
			if sharded {
				if scenario == "crash" {
					continue // a sharded run cannot reparent (its partition is static)
				}
				name += "/sharded"
			}
			t.Run(name, func(t *testing.T) {
				spec, err := fault.Scenario(scenario)
				if err != nil {
					t.Fatal(err)
				}
				infra := consistency.InfraUnicast
				if scenario == "crash" {
					infra = consistency.InfraMulticast
				}
				cfg := baseConfig(t, consistency.MethodTTL, infra)
				cfg.Faults = &spec
				cfg.Failover = true
				cfg.Sharded = sharded
				res, s := runSim(t, cfg)
				switch scenario {
				case "crash":
					if res.ServerReparents == 0 {
						t.Error("no child reparented off a dead relay: its poll timeouts never retried")
					}
				case "partition":
					drops := 0
					for _, c := range s.cells {
						drops += c.deliverDrops["partition"]
					}
					if drops == 0 {
						t.Fatal("the partition dropped no poll")
					}
				}
				if res.LiveServersAtFinalVersion != res.LiveServers {
					t.Errorf("%d of %d live servers at the final version: an unanswered poll did not retry",
						res.LiveServersAtFinalVersion, res.LiveServers)
				}
			})
		}
	}

	t.Run("fault-free", func(t *testing.T) {
		cfg, err := baseConfig(t, consistency.MethodTTL, consistency.InfraUnicast).withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seeded := make(map[*pollRec]bool)
		for range 4 * len(s.nodes) {
			r := &pollRec{s: s}
			seeded[r] = true
			s.pollFree = append(s.pollFree, r)
		}
		if _, err := s.run(); err != nil {
			t.Fatal(err)
		}
		free := make(map[*pollRec]bool)
		for _, r := range s.pollFree {
			if !seeded[r] {
				t.Fatal("the run emptied the seeded free list; seed more records")
			}
			free[r] = true
		}
		eng := s.cells[0].eng
		used := 0
		for r := range seeded {
			if r.timeout != 0 {
				used++
			}
			// Cancel reports whether the timeout was still pending.
			live := eng.Cancel(r.timeout)
			switch {
			case free[r] && live:
				t.Errorf("released poll %d -> %d keeps a live timeout", r.i, r.p)
			case !free[r] && r.answered && live:
				t.Errorf("answered poll %d -> %d keeps a live timeout", r.i, r.p)
			}
		}
		if used == 0 {
			t.Fatal("the run used no poll record")
		}
	})
}

// pollBenchConfig is one server polling the provider, with no users and a
// publication only past the benchmark's reach, so the engine holds nothing
// but the poll cycle.
func pollBenchConfig() Config {
	topo := &topology.Topology{
		Provider: topology.Node{ID: "provider", Kind: topology.KindProvider},
		Servers:  []topology.Node{{ID: "s0", Kind: topology.KindServer}},
		Users:    [][]topology.Node{nil},
	}
	return Config{
		Method:  consistency.MethodTTL,
		Infra:   consistency.InfraUnicast,
		Topo:    topo,
		Updates: []workload.Update{{Snapshot: 1, At: 24 * time.Hour, SizeKB: 1}},
		Seed:    1,
	}
}

// BenchmarkPollCycle is the TTL poll layer: one op is one fault-free poll
// cycle (the resume, the request's and the response's arrivals; the
// answered poll's timeout is cancelled, not fired). A steady-state cycle
// allocates nothing.
func BenchmarkPollCycle(b *testing.B) {
	cfg, err := pollBenchConfig().withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.scheduleServerLoops(); err != nil {
		b.Fatal(err)
	}
	eng := s.cells[0].eng
	// cycle runs the next poll cycle: its resume is the next live event,
	// and the one after it comes a round trip more than a TTL later.
	cycle := func() {
		at, _ := eng.PeekTime()
		if err := eng.RunUntil(at + s.cfg.ServerTTL/2); err != nil {
			b.Fatal(err)
		}
	}
	// Warm up: the staggered first poll, and the engine's and network's
	// free lists.
	for range 4 {
		cycle()
	}
	start := eng.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	if got := eng.Processed() - start; got != 3*uint64(b.N) {
		b.Fatalf("%d events over %d poll cycles, want 3 per cycle", got, b.N)
	}
}
