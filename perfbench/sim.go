package main

import (
	"fmt"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// simWorkload runs a fixed list of systems through core.Run over one
// topology and update schedule. cohort-visits and update-storm are two
// settings of it.
type simWorkload struct {
	systems []core.System
	servers int
	// usersPerServer explicit users sit on each server; population, when
	// set, replaces them with weighted cohorts (the cohort user model).
	usersPerServer int
	population     *workload.PopulationConfig
	// The schedule keeps the first updates of game, stretched so the last
	// one lands at span (see fixedSchedule).
	game    workload.GameConfig
	updates int
	span    time.Duration
	// storm adds the crash scenario, failover, the auditor and the
	// sharded engine with workers goroutines.
	storm   bool
	workers int

	// Inputs built by setup.
	seed     int64
	topo     *topology.Topology
	pop      *workload.Population
	schedule []workload.Update
}

// cohortVisits is the read path: a heavy-tailed cohort population of a
// million users visiting every 10 s, served by TTL then HAT on the serial
// engine with every visit booked into the traffic ledger.
func cohortVisits(tiny bool) *simWorkload {
	w := &simWorkload{
		systems: []core.System{core.SystemTTL, core.SystemHAT},
		servers: 850,
		population: &workload.PopulationConfig{
			Servers: 850, TotalUsers: 1_000_000, Alpha: 1.2, CohortsPerServer: 16,
		},
		game:    workload.DefaultGame(),
		updates: 20,
		span:    8 * time.Minute,
	}
	if tiny {
		w.servers, w.population.Servers, w.population.TotalUsers = 40, 40, 10_000
		w.population.CohortsPerServer = 4
		w.updates, w.span = 10, 4*time.Minute
	}
	return w
}

// updateStorm is the write path: five explicit users per server while
// updates arrive every 5 s on average, pushed then invalidated over
// unicast while an eighth of the fleet crash-stops, with failover, the
// auditor and the sharded engine on.
func updateStorm(tiny bool, workers int) *simWorkload {
	game := workload.DefaultGame()
	for i := range game.Phases {
		if game.Phases[i].MeanGap > 0 {
			game.Phases[i].MeanGap = 5 * time.Second
		}
	}
	w := &simWorkload{
		systems:        []core.System{core.SystemPush, core.SystemInvalidation},
		servers:        850,
		usersPerServer: 5,
		game:           game,
		updates:        72,
		span:           6 * time.Minute,
		storm:          true,
		workers:        workers,
	}
	if tiny {
		w.servers, w.updates, w.span = 40, 20, 2*time.Minute
	}
	return w
}

func (w *simWorkload) setup(tr *tracer, seed int64) error {
	w.seed = seed
	id := tr.start("topology.generate")
	topo, err := topology.Generate(topology.Config{Servers: w.servers, UsersPerServer: w.usersPerServer, Seed: seed})
	tr.stop(id)
	if err != nil {
		return err
	}
	w.topo = topo
	if w.population != nil {
		cfg := *w.population
		cfg.Seed = seed
		id := tr.start("workload.population")
		w.pop, err = workload.GeneratePopulation(cfg)
		tr.stop(id)
		if err != nil {
			return err
		}
	}
	id = tr.start("workload.schedule")
	w.schedule, err = fixedSchedule(w.game, seed, w.updates, w.span)
	tr.stop(id)
	return err
}

// fixedSchedule draws the seed's schedule from game, keeps its first n
// updates and stretches their times so the last one lands at span. The
// update count and the run's horizon are then the same for every seed, so
// the work a pass does barely depends on it; the update times still do.
func fixedSchedule(game workload.GameConfig, seed int64, n int, span time.Duration) ([]workload.Update, error) {
	updates, err := workload.Schedule(game, seed)
	if err != nil {
		return nil, err
	}
	if len(updates) < n {
		return nil, fmt.Errorf("schedule has %d updates, want at least %d", len(updates), n)
	}
	updates = updates[:n]
	scale := float64(span) / float64(updates[n-1].At)
	for i := range updates {
		updates[i].At = time.Duration(float64(updates[i].At) * scale)
	}
	updates[n-1].At = span
	return updates, nil
}

func (w *simWorkload) options(workers int, audit bool) []core.Option {
	opts := []core.Option{core.WithSeed(w.seed), core.WithTopology(w.topo), core.WithUpdates(w.schedule)}
	if w.pop != nil {
		opts = append(opts, core.WithUserModel(cdn.UserModelCohort), core.WithPopulation(w.pop), core.WithVisitAccounting())
	}
	if w.storm {
		crash, err := fault.Scenario("crash")
		if err != nil {
			panic(err) // a built-in scenario
		}
		opts = append(opts, core.WithFaults(crash), core.WithFailover(), core.WithShards(workers))
		if audit {
			opts = append(opts, core.WithAudit(0))
		}
	}
	return opts
}

func (w *simWorkload) pass(tr *tracer) []opResult {
	ops := make([]opResult, 0, len(w.systems))
	for _, sys := range w.systems {
		ops = append(ops, w.run(tr, sys, "core.run."+sys.Name, w.workers, true))
	}
	return ops
}

// run is one operation: a simulation and the plan metrics over its result.
func (w *simWorkload) run(tr *tracer, sys core.System, spanName string, workers int, audit bool) opResult {
	op := opResult{name: sys.Name}
	start := time.Now()
	id := tr.start(spanName)
	res, err := core.Run(sys, w.options(workers, audit)...)
	tr.stop(id)
	if err != nil {
		op.wall, op.err = time.Since(start), err
		return op
	}
	id = tr.start("plan.metrics")
	m := plan.Metrics(res)
	tr.stop(id)
	op.wall = time.Since(start)
	op.err = checkResult(res, m, w.storm && audit)
	op.digest = resultDigest(res)
	op.visits = float64(res.UserObservations + res.FailedVisits)
	op.counts = resultCounts(sys.Name, res, w.storm)
	return op
}

// checkResult checks what a correct run must show beyond its digest: user
// visits happened, plan metrics agree with the counters they are read
// from, and an audited run was audited.
func checkResult(res *cdn.Result, m map[string]float64, audited bool) error {
	switch {
	case res.UserObservations <= 0 || res.Events == 0:
		return fmt.Errorf("no visits or events (observations %d, events %d)", res.UserObservations, res.Events)
	case m["user_observations"] != float64(res.UserObservations) || m["events"] != float64(res.Events):
		return fmt.Errorf("plan metrics disagree with the result")
	case audited && res.AuditChecks == 0:
		return fmt.Errorf("audited run made no audit checks")
	}
	return nil
}

// resultCounts gives the per-layer counters of one run, named per system;
// the audit and fault counters only for the storm, which exercises them.
func resultCounts(sys string, r *cdn.Result, storm bool) map[string]float64 {
	visits := float64(r.UserObservations + r.FailedVisits)
	c := map[string]float64{
		"sim.events." + sys:            float64(r.Events),
		"cdn.user_visits." + sys:       visits,
		"cdn.visits_per_event." + sys:  visits / float64(r.Events),
		"netmodel.msgs.update." + sys:  float64(r.Accounting.ByClass[netmodel.ClassUpdate].Messages),
		"netmodel.msgs.light." + sys:   float64(r.Accounting.ByClass[netmodel.ClassLight].Messages),
		"netmodel.msgs.content." + sys: float64(r.Accounting.ByClass[netmodel.ClassContent].Messages),
	}
	if !storm {
		return c
	}
	c["audit.checks."+sys] = float64(r.AuditChecks)
	c["fault.crashes."+sys] = float64(r.Crashes)
	c["cdn.failed_visits."+sys] = float64(r.FailedVisits)
	c["cdn.user_failovers."+sys] = float64(r.UserFailovers)
	if r.FailedVisits > 0 {
		c["cdn.failover_yield."+sys] = float64(r.UserFailovers) / float64(r.FailedVisits)
	}
	return c
}

// traced derives the per-layer metrics from the traced passes. On the
// update storm it also runs two ablations per system: one sharded worker
// (for sharded.speedup; its digest must equal the nproc-worker digest) and
// the auditor off (for audit.overhead_frac).
func (w *simWorkload) traced(tr *tracer, last []opResult) (map[string]float64, []opResult) {
	out := map[string]float64{}
	for _, op := range last {
		for k, v := range op.counts {
			out[k] = v
		}
	}
	out["plan.metrics_s"] = median(perRoot(tr.spans, "pass", "plan.metrics"))
	var extra []opResult
	for _, sys := range w.systems {
		var run, cpu []float64
		for _, s := range tr.spans {
			if s.Name == "core.run."+sys.Name && s.Pass >= 0 {
				run = append(run, s.seconds())
				cpu = append(cpu, s.CPUSeconds/s.seconds())
			}
		}
		runS := median(run)
		out["core.run_s."+sys.Name] = runS
		// A failed run leaves its counters out; its ratios stay 0.
		if events := out["sim.events."+sys.Name]; events > 0 {
			out["sim.ns_per_event."+sys.Name] = runS * 1e9 / events
		}
		msgs := out["netmodel.msgs.update."+sys.Name] + out["netmodel.msgs.light."+sys.Name] + out["netmodel.msgs.content."+sys.Name]
		if msgs > 0 {
			out["netmodel.ns_per_msg."+sys.Name] = runS * 1e9 / msgs
		}
		if !w.storm {
			continue
		}
		out["sharded.cpu_util."+sys.Name] = median(cpu)
		tr.pass = -1
		root := tr.start("ablation")
		one := w.run(tr, sys, "ablation.one_worker."+sys.Name, 1, true)
		off := w.run(tr, sys, "ablation.audit_off."+sys.Name, w.workers, false)
		tr.stop(root)
		extra = append(extra, one, off)
		if off := lastSpan(tr, "ablation.audit_off."+sys.Name); runS > 0 && off > 0 {
			out["sharded.speedup."+sys.Name] = lastSpan(tr, "ablation.one_worker."+sys.Name) / runS
			out["audit.overhead_frac."+sys.Name] = runS/off - 1
		}
	}
	return out, extra
}

// lastSpan returns the duration of the latest span named name.
func lastSpan(tr *tracer, name string) float64 {
	for i := len(tr.spans) - 1; i >= 0; i-- {
		if tr.spans[i].Name == name {
			return tr.spans[i].seconds()
		}
	}
	return 0
}
