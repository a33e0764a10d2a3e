package figures

import (
	"fmt"
	"io"
	"os"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/workload"
)

// ExtScalePerfOutput receives ext-scale's machine-dependent throughput and
// peak-RSS report (stderr by default, so the deterministic table on stdout
// stays byte-identical). The benchmark harness points it at io.Discard:
// `go test` merges the test binary's stderr into its stdout mid-line, which
// would corrupt the benchmark result line the bench parser reads.
var ExtScalePerfOutput io.Writer = os.Stderr

// extScaleSystems are the four protocols the scalability sweep compares.
var extScaleSystems = []core.System{
	core.SystemTTL,
	core.SystemInvalidation,
	core.SystemPush,
	core.SystemHAT,
}

// ExtScale sweeps the user population 10^4 -> 10^6 over the Section 5.3
// deployment (Servers x 5 content servers, 850 at paper scale) under the
// cohort user model, for TTL, Invalidation, Push, and HAT. Memory and event
// volume stay fixed as users grow — state scales with cohorts, not users,
// and events with the cohort visits that can act (a parked cohort's visits
// cost no event) — which is what moves the evaluation from the paper's
// 4,250 users to production scale on one machine.
//
// The table reports only deterministic quantities (per-user inconsistency,
// stale-serve fraction, batched request traffic), so output is byte-identical
// between serial and parallel runs; wall-clock throughput (users/sec) goes
// to stderr.
func ExtScale(scale SimScale) (*Table, error) {
	s5 := scale.section5()
	totals := []int{10_000, 100_000, 1_000_000}
	cohortsPer := 16
	if scale.Scenario.Servers < 170 {
		// Reduced sweep for tests and smoke runs.
		totals = []int{1_000, 10_000}
		cohortsPer = 4
	}
	t := &Table{
		ID:     "ext-scale",
		Title:  "cohort-model user scalability: population sweep at fixed memory",
		Note:   "extension: ROADMAP north-star serves millions of users; per-server populations heavy-tailed as in anycast CDN measurements",
		Header: []string{"users", "cohorts", "system", "user_mean_s", "stale_frac", "content_msgs"},
	}

	// One heavy-tailed population per sweep point, shared across the four
	// systems so their comparison is apples-to-apples.
	pops := make([]*workload.Population, len(totals))
	for i, total := range totals {
		p, err := workload.GeneratePopulation(workload.PopulationConfig{
			Servers:          s5.Scenario.Servers,
			TotalUsers:       total,
			Alpha:            1.2,
			CohortsPerServer: cohortsPer,
			SpreadMax:        50 * time.Second,
			Seed:             s5.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("figures: ext-scale: %w", err)
		}
		pops[i] = p
	}

	walls := make([]time.Duration, len(totals)*len(extScaleSystems))
	results, err := s5.run(t, len(walls), func(i int) cell {
		sc := s5.Scenario
		sc.Population = pops[i/len(extScaleSystems)]
		sc.UserModel = cdn.UserModelCohort
		sc.VisitAccounting = true
		return cell{
			sys: extScaleSystems[i%len(extScaleSystems)],
			sc:  sc,
			ran: func(wall time.Duration) { walls[i] = wall },
		}
	})
	if err != nil {
		return nil, err
	}

	for pi, total := range totals {
		for si, sys := range extScaleSystems {
			res := results[pi*len(extScaleSystems)+si]
			t.AddRow(d0(total), d0(pops[pi].NumCohorts()), sys.Name,
				f3(res.MeanUserInconsistency()),
				f4(res.StaleServeFrac()),
				d0(res.Accounting.ByClass[netmodel.ClassContent].Messages))
		}
	}

	// Throughput is machine-dependent, so it must not enter the
	// (serial-vs-parallel byte-identical) table; report it on stderr.
	for i, wall := range walls {
		if wall <= 0 {
			continue
		}
		total, visits := totals[i/len(extScaleSystems)], results[i].UserObservations+results[i].FailedVisits
		fmt.Fprintf(ExtScalePerfOutput, "ext-scale: %-12s users=%-8d wall=%-8s users/sec=%.3g visits/sec=%.3g\n",
			extScaleSystems[i%len(extScaleSystems)].Name, total, wall.Round(time.Millisecond),
			float64(total)/wall.Seconds(), float64(visits)/wall.Seconds())
	}
	return t, nil
}
