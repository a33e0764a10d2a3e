package cdn

import (
	"fmt"
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// tiePopulation is a JSON population built for exact ties: every offset is a
// whole second and the period is 10 s, so each server's cohorts share visit
// instants with each other (equal offsets, offsets a period apart) and with
// every whole-second event of the run. One cohort in three visits every 20 s
// instead, so ties also pair cohorts of different periods. Server 4 also
// holds a cohort whose first visit comes at 301 s, after publications have
// begun.
func tiePopulation(t *testing.T, servers int) *workload.Population {
	t.Helper()
	js := `{"servers": [`
	for si := 0; si < servers; si++ {
		if si > 0 {
			js += ","
		}
		js += "["
		for ci := 0; ci < 4; ci++ {
			if ci > 0 {
				js += ","
			}
			period := 10
			if (si+ci)%3 == 0 {
				period = 20
			}
			// Offsets 0..9 s and 10..19 s, so some cohorts share a phase
			// but not a first visit.
			offset := (si*3 + ci*7) % 20
			js += fmt.Sprintf(`{"count": %d, "offset_ns": %d, "period_ns": %d}`,
				1+(si+ci)%4, int64(offset)*int64(time.Second), int64(period)*int64(time.Second))
		}
		if si == 4 {
			js += fmt.Sprintf(`,{"count": 2, "offset_ns": %d, "period_ns": %d}`,
				int64(301*time.Second), int64(10*time.Second))
		}
		js += "]"
	}
	js += "]}"
	pop, err := workload.ParsePopulation([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// tieConfig is equivConfig on the tie population: a 10 s ServerTTL, so every
// timeout a visit arms lands on another visit instant, and the test game's
// update times cut to whole seconds, so publications land on visit instants
// too. scenario "aligned" crashes three servers at whole seconds, one of
// them for good and one at the instant of a cohort's first visit, so
// crashes and recoveries land on visit instants, first ones included.
func tieConfig(t *testing.T, method consistency.Method, infra consistency.Infra,
	scenario string, sharded bool) (Config, *workload.Population) {
	t.Helper()
	const seed = 5
	pop := tiePopulation(t, 12)
	sc := scenario
	if sc == "aligned" {
		sc = ""
	}
	cfg := equivConfig(t, method, infra, seed, pop, sc)
	for i := range cfg.Updates {
		cfg.Updates[i].At = cfg.Updates[i].At.Truncate(time.Second)
	}
	cfg.ServerTTL = 10 * time.Second
	cfg.UserTTL = 10 * time.Second
	cfg.Sharded = sharded
	if scenario == "aligned" {
		cfg.Faults = &fault.Spec{Crashes: []fault.Crash{
			// Server 4's late cohort first visits at 301 s.
			{Server: 4, At: fault.Duration(301 * time.Second), RecoverAfter: fault.Duration(60 * time.Second)},
			{Server: 2, At: fault.Duration(250 * time.Second)},
			{Server: 6, At: fault.Duration(400 * time.Second), RecoverAfter: fault.Duration(90 * time.Second)},
		}}
		cfg.Failover = true
	}
	return cfg, pop
}

// runCohortTies runs cfg under the cohort model and reports the exact ties
// its fold resolved.
func runCohortTies(t *testing.T, cfg Config) (*Result, int) {
	t.Helper()
	cfg.UserModel = UserModelCohort
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for _, n := range s.um.(*cohortUsers).ties {
		ties += n
	}
	return res, ties
}

// checkTieEquivalence holds the cohort model to the explicit model on the
// tie-heavy schedules of four systems, fault-free and under crashes, and
// requires every case to hit exact ties: parked visits at the instant of a
// publication, a crash or recovery, or a state change, and tied first
// visitors after a self-adaptive invalidation.
func checkTieEquivalence(t *testing.T, sharded bool) {
	for _, sys := range shardSystems {
		for _, scenario := range []string{"none", "crash", "aligned"} {
			sys, scenario := sys, scenario
			t.Run(sys.name+"/"+scenario, func(t *testing.T) {
				t.Parallel()
				sc := scenario
				if sc == "none" {
					sc = ""
				}
				cfg, pop := tieConfig(t, sys.method, sys.infra, sc, sharded)
				ecfg := cfg
				ecfg.UserModel = UserModelExplicit
				exp := runReference(t, ecfg)
				coh, ties := runCohortTies(t, cfg)
				assertEquivalent(t, pop, exp, coh)
				// Traffic per sender too: a visit booked at the wrong
				// server moves content traffic between senders.
				for id, et := range exp.Accounting.BySender {
					ct := coh.Accounting.BySender[id]
					if et.Messages != ct.Messages || et.Km != ct.Km {
						t.Errorf("sender %s: explicit %d msgs %v km, cohort %d msgs %v km", id, et.Messages, et.Km, ct.Messages, ct.Km)
					}
				}
				if len(exp.Accounting.BySender) != len(coh.Accounting.BySender) {
					t.Errorf("senders: explicit %d, cohort %d", len(exp.Accounting.BySender), len(coh.Accounting.BySender))
				}
				if ties == 0 {
					t.Fatal("the tie schedule hit no exact visit/state-change tie")
				}
				t.Logf("%d exact ties", ties)
			})
		}
	}
}

func TestCohortTieEquivalence(t *testing.T) { checkTieEquivalence(t, false) }

// TestShardedCohortTieEquivalence is the sharded half, which the race run of
// the sharded suites covers.
func TestShardedCohortTieEquivalence(t *testing.T) { checkTieEquivalence(t, true) }

// eventCutConfig is a fault-free cohort TTL run over a population large
// enough that visits dominate the event volume: 20 servers with 16 cohorts
// each, visiting every 10 s.
func eventCutConfig(t testing.TB, method consistency.Method, infra consistency.Infra, servers int) Config {
	updates, err := workload.Schedule(testGame(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := workload.GeneratePopulation(workload.PopulationConfig{
		Servers: servers, TotalUsers: 1000 * servers, Alpha: 1.2, CohortsPerServer: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Method:        method,
		Infra:         infra,
		Topology:      topology.Config{Servers: servers, UsersPerServer: 1, Seed: 1},
		Updates:       updates,
		Seed:          1,
		Population:    pop,
		UserModel:     UserModelCohort,
		AccountVisits: true,
	}
}

// visitInstants counts the cohort visit instants of cfg's run: the visits
// the event-per-visit model would spend one event each on.
func visitInstants(cfg Config) int {
	cfg, _ = cfg.withDefaults()
	horizon := startDelay + cfg.Updates[len(cfg.Updates)-1].At + cfg.HorizonSlack
	n := 0
	for _, cohorts := range cfg.Population.Servers {
		for _, spec := range cohorts {
			period := spec.Period()
			if period <= 0 {
				period = cfg.UserTTL
			}
			if spec.Offset() <= horizon {
				n += int((horizon-spec.Offset())/period) + 1
			}
		}
	}
	return n
}

// A fault-free TTL run spends engine events on server polls and
// publications, not on visits: no visit of a TTL server can act, so every
// cohort parks after its first visit. That holds for a weighted Population
// under the cohort model and for the topology's own users under the
// explicit one, each its own cohort; ten users per server make a server's
// polls a small share of its visits.
func TestCohortParkedEventCut(t *testing.T) {
	t.Run("cohort", func(t *testing.T) {
		cfg := eventCutConfig(t, consistency.MethodTTL, consistency.InfraUnicast, 20)
		res := mustRun(t, cfg)
		instants := visitInstants(cfg)
		if res.Events*10 > uint64(instants) {
			t.Fatalf("cohort TTL run processed %d events for %d cohort visit instants, want <= 10%%", res.Events, instants)
		}
		if want := cfg.Population.TotalUsers(); res.UserObservations < want {
			t.Fatalf("%d observations, want at least one per user (%d)", res.UserObservations, want)
		}
	})
	t.Run("explicit", func(t *testing.T) {
		cfg := eventCutConfig(t, consistency.MethodTTL, consistency.InfraUnicast, 20)
		cfg.Population, cfg.UserModel, cfg.AccountVisits = nil, "", false
		cfg.Topology.UsersPerServer = 10
		res := mustRun(t, cfg)
		// Fault-free, every visit is one observation at its own instant.
		if instants := res.UserObservations; res.Events*10 > uint64(instants) {
			t.Fatalf("explicit TTL run processed %d events for %d visit instants, want <= 10%%", res.Events, instants)
		}
	})
}

// BenchmarkCohortRun is the cohort-visit layer: one fault-free cohort run
// over 170 servers with 16 cohorts each, under TTL and HAT. It reports the
// engine events and the cohort visit instants of a run.
func BenchmarkCohortRun(b *testing.B) {
	for _, sys := range []struct {
		name   string
		method consistency.Method
		infra  consistency.Infra
	}{
		{"TTL", consistency.MethodTTL, consistency.InfraUnicast},
		{"HAT", consistency.MethodSelfAdaptive, consistency.InfraHybrid},
	} {
		b.Run(sys.name, func(b *testing.B) {
			cfg := eventCutConfig(b, sys.method, sys.infra, 170)
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(visitInstants(cfg)), "visits/op")
		})
	}
}

// arrivalTieConfig puts message arrivals on parked visits' exact instants.
// Its prebuilt topology holds every server at the provider's location in the
// provider's ISP, and the uplinks carry 1,000 KB/s, so a 1 KB message
// arrives after the 2 ms base delay plus 1 ms of transmission, and the
// provider's fan-out queues one more millisecond per server: every arrival
// falls on a whole millisecond. Publications fall on odd milliseconds and
// visits, every 10 ms from offsets of 0, 2, 4, 6 and 8 ms, on every even
// one, so every other server's update or invalidation lands on a visit
// instant, while no visit ties with a publication.
func arrivalTieConfig(t *testing.T, method consistency.Method) (Config, *workload.Population) {
	t.Helper()
	const servers = 6
	here := geo.Point{Lat: 33.749, Lon: -84.388}
	topo := &topology.Topology{Provider: topology.Node{ID: "provider", Kind: topology.KindProvider, Loc: here}}
	pop := &workload.Population{}
	for si := 0; si < servers; si++ {
		topo.Servers = append(topo.Servers, topology.Node{ID: fmt.Sprintf("s%d", si), Kind: topology.KindServer, Loc: here})
		topo.Users = append(topo.Users, nil)
		var cohorts []workload.CohortSpec
		for k := 0; k < 5; k++ {
			cohorts = append(cohorts, workload.CohortSpec{
				Count:    1 + (si+k)%2,
				OffsetNS: int64(2*k) * int64(time.Millisecond),
				PeriodNS: int64(10 * time.Millisecond),
			})
		}
		pop.Servers = append(pop.Servers, cohorts)
	}
	var updates []workload.Update
	for k := 1; k <= 4; k++ {
		at := time.Duration(k)*1500*time.Millisecond + time.Millisecond
		updates = append(updates, workload.Update{Snapshot: k, At: at, SizeKB: 1})
	}
	return Config{
		Method:        method,
		Infra:         consistency.InfraUnicast,
		Topo:          topo,
		Updates:       updates,
		UpdateSizeKB:  1,
		HorizonSlack:  time.Second,
		Population:    pop,
		AccountVisits: true,
		Audit:         &AuditOptions{},
		Net:           netmodel.Config{DefaultUplinkKBps: 1000},
		Seed:          9,
	}, pop
}

// TestCohortArrivalTies holds the fold's tie rule for message arrivals: a
// parked visit at the instant an update or invalidation arrives was
// scheduled a full period before the arrival's send, so it fires first and
// sees the state before the write. The schedule ties no visit with a
// publication or a fault, so every tie the fold counts is an arrival's.
func TestCohortArrivalTies(t *testing.T) {
	for _, method := range []consistency.Method{consistency.MethodPush, consistency.MethodInvalidation} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			cfg, pop := arrivalTieConfig(t, method)
			ecfg := cfg
			ecfg.UserModel = UserModelExplicit
			exp := runReference(t, ecfg)
			coh, ties := runCohortTies(t, cfg)
			assertEquivalent(t, pop, exp, coh)
			if ties == 0 {
				t.Fatal("no message arrival tied with a parked visit")
			}
			t.Logf("%d arrival ties", ties)
		})
	}
}
