package cdn

import (
	"fmt"
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/sim"
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

// TestUnansweredFetchFails holds the Invalidation fetch timeout to both of
// its duties. Under a partition (serial and sharded) and a provider outage,
// a fetch that gets no answer must still time out one TTL after it went
// out, fail, and serve the content the server holds to whoever waits on
// it. Probes started inside each fault window check that directly: each is
// a fetch with a waiting callback, by a server that cannot reach its parent
// or whose provider is down.
//
// After a fault-free run, no completed fetch may keep a live timeout:
// completion cancels it. The run ends half a TTL after its last update, so
// the fetches that update starts complete with their timeouts still ahead.
func TestUnansweredFetchFails(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		sharded  bool
	}{{"partition", false}, {"partition", true}, {"outage", false}} {
		name := tc.scenario
		if tc.sharded {
			name += "/sharded"
		}
		t.Run(name, func(t *testing.T) {
			spec, err := fault.Scenario(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			cfg := baseConfig(t, consistency.MethodInvalidation, consistency.InfraUnicast)
			cfg.Faults = &spec
			cfg.Sharded = tc.sharded
			cfg, err = cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var start time.Duration
			for _, e := range s.faultEvents {
				if e.Op == fault.OpPartitionStart || e.Op == fault.OpProviderDown {
					start = e.At
					break
				}
			}
			if start == 0 {
				t.Fatal("the scenario has no partition or outage")
			}
			probeAt := start + time.Second
			probes, served := 0, 0
			for i := 1; i < len(s.nodes); i++ {
				i, nd := i, s.nodes[i]
				s.at(i, probeAt, func() {
					cut := !s.cell(i).net.Reachable(nd.ep, s.prov[0].ep)
					if nd.down || nd.fetchInFlight || !cut && !s.prov[0].down {
						return
					}
					probes++
					held := nd.version
					s.triggerFetch(i, sim.Thunk, func() {
						served++
						if now := s.now(i); now != probeAt+cfg.ServerTTL {
							t.Errorf("server %d's probe fetch ended at %v, want its timeout at %v", i, now, probeAt+cfg.ServerTTL)
						}
						if nd.version != held || nd.fetchInFlight {
							t.Errorf("server %d: version %d (held %d), in flight %v after its unanswered fetch",
								i, nd.version, held, nd.fetchInFlight)
						}
					}, 0)
				})
			}
			if _, err := s.run(); err != nil {
				t.Fatal(err)
			}
			if probes == 0 {
				t.Fatal("no server was cut off at the probe instant")
			}
			if served != probes {
				t.Errorf("%d of %d unanswered fetches served their waiter: a timeout did not fire", served, probes)
			}
		})
	}

	t.Run("fault-free", func(t *testing.T) {
		cfg := baseConfig(t, consistency.MethodInvalidation, consistency.InfraUnicast)
		cfg.HorizonSlack = 30 * time.Second
		cfg, err := cfg.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// seqs snapshots every fetch count one TTL before the horizon: a
		// fetch started after it has its timeout after the horizon.
		seqs := make([]int, len(s.nodes))
		s.at(0, s.horizon-cfg.ServerTTL+1, func() {
			for i, nd := range s.nodes {
				seqs[i] = nd.fetchSeq
			}
		})
		if _, err := s.run(); err != nil {
			t.Fatal(err)
		}
		late := 0
		for i, nd := range s.nodes[1:] {
			if nd.fetchInFlight {
				continue
			}
			if nd.fetchSeq > seqs[i+1] {
				late++
			}
			// Cancel reports whether the timeout was still pending.
			if s.cell(nd.idx).eng.Cancel(nd.fetchTimer) {
				t.Errorf("server %d's completed fetch keeps a live timeout", nd.idx)
			}
		}
		if late == 0 {
			t.Fatal("no fetch completed in the last TTL of the run")
		}
	})
}

// benchCities places a benchmark topology's provider (New York) and up to
// eight servers far enough apart that a sharded run spreads them over
// several cells.
var benchCities = []geo.Point{
	{Lat: 40.71, Lon: -74.01},  // New York: the provider
	{Lat: 39.95, Lon: -75.17},  // Philadelphia
	{Lat: 51.51, Lon: -0.13},   // London
	{Lat: 41.88, Lon: -87.63},  // Chicago
	{Lat: 50.11, Lon: 8.68},    // Frankfurt
	{Lat: 35.68, Lon: 139.69},  // Tokyo
	{Lat: -23.55, Lon: -46.63}, // São Paulo
	{Lat: -33.87, Lon: 151.21}, // Sydney
	{Lat: 1.35, Lon: 103.82},   // Singapore
}

// layerBenchSim builds a unicast simulation of method over servers servers
// at benchCities, each with one user when users is set, and a publication
// only past the benchmark's reach. It schedules the users' visits and
// returns the simulation and a function that runs it through a time.
func layerBenchSim(b *testing.B, method consistency.Method, servers int, users, sharded bool) (*simulation, func(time.Duration)) {
	topo := &topology.Topology{Provider: topology.Node{ID: "provider", Kind: topology.KindProvider, Loc: benchCities[0]}}
	for i := 1; i <= servers; i++ {
		topo.Servers = append(topo.Servers, topology.Node{ID: fmt.Sprintf("s%d", i), Kind: topology.KindServer, Loc: benchCities[i], ISP: i})
		var us []topology.Node
		if users {
			us = []topology.Node{{ID: fmt.Sprintf("u%d", i), Kind: topology.KindUser, Loc: benchCities[i], ISP: i}}
		}
		topo.Users = append(topo.Users, us)
	}
	cfg, err := Config{
		Method:  method,
		Infra:   consistency.InfraUnicast,
		Topo:    topo,
		Updates: []workload.Update{{Snapshot: 1, At: 24 * time.Hour, SizeKB: 1}},
		Seed:    1,
		Sharded: sharded,
	}.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if sharded && len(s.cells) < 2 {
		b.Fatalf("the sharded run has %d cell", len(s.cells))
	}
	if err := s.um.schedule(); err != nil {
		b.Fatal(err)
	}
	runTo := func(t time.Duration) {
		var err error
		if s.sharded() {
			err = s.shEng.Run(t)
		} else {
			err = s.cells[0].eng.Run(t)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return s, runTo
}

// processed is the events s has run across its cells.
func (s *simulation) processed() uint64 {
	if s.sharded() {
		return s.shEng.Processed()
	}
	return s.cells[0].eng.Processed()
}

// BenchmarkFetchCycle is the Invalidation fetch layer: one op is one
// invalidation round over two servers (New York's neighbour and London),
// each with one user, run for two visit periods. Each server takes the
// notice, its user's next visit finds it invalid and fetches, the origin
// answers, and the response completes the fetch, cancels its timeout and
// serves the deferred visit. The visit after that, armed while the fetch
// was in flight, finds fresh content and parks the user: five events per
// server. The sharded run puts London in its own cell, so its messages
// cross the barrier exchange. A steady-state cycle allocates nothing.
func BenchmarkFetchCycle(b *testing.B) {
	for _, sharded := range []bool{false, true} {
		name := "serial"
		if sharded {
			name = "sharded"
		}
		b.Run(name, func(b *testing.B) {
			s, runTo := layerBenchSim(b, consistency.MethodInvalidation, 2, true, sharded)
			var now time.Duration
			// cycle invalidates from the origin, then runs two visit
			// periods on.
			cycle := func() {
				s.invalidateChildren(0, 0)
				now += 2 * s.cfg.UserTTL
				runTo(now)
			}
			// Warm up: the users' first visits, and the free lists.
			now = userStartMax
			runTo(now)
			for range 8 {
				cycle()
			}
			start := s.processed()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			if got := s.processed() - start; got != 10*uint64(b.N) {
				b.Fatalf("%d events over %d fetch cycles, want 10 per cycle", got, b.N)
			}
		})
	}
}

// BenchmarkPushFanout is the Push dissemination layer: one op is one new
// version pushed from the origin to eight servers on three continents, one
// arrival event each. The sharded run spreads the servers over several
// cells, so most arrivals cross the barrier exchange. A steady-state push
// allocates nothing.
func BenchmarkPushFanout(b *testing.B) {
	for _, sharded := range []bool{false, true} {
		name := "serial"
		if sharded {
			name = "sharded"
		}
		b.Run(name, func(b *testing.B) {
			s, runTo := layerBenchSim(b, consistency.MethodPush, 8, false, sharded)
			var now time.Duration
			push := func() {
				s.prov[0].version++
				s.pushToChildren(0, 0)
				now += time.Second
				runTo(now)
			}
			for range 8 {
				push()
			}
			start := s.processed()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push()
			}
			b.StopTimer()
			if got := s.processed() - start; got != 8*uint64(b.N) {
				b.Fatalf("%d events over %d pushes, want 8 per push", got, b.N)
			}
			for _, nd := range s.nodes[1:] {
				if nd.version != s.prov[0].version {
					b.Fatalf("server %d holds version %d after the push of %d", nd.idx, nd.version, s.prov[0].version)
				}
			}
		})
	}
}
