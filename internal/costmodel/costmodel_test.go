package costmodel

import (
	"math"
	"testing"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

func baseWorkload() Workload {
	return Workload{
		UpdateRate:         1.0 / 30, // an update every 30s
		VisitRatePerServer: 0.2,      // 2 users polling every 10s
		Servers:            50,
		TTL:                60 * time.Second,
		TreeDepth:          1,
		RTTSeconds:         0.05,
	}
}

func TestValidate(t *testing.T) {
	good := baseWorkload()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Workload){
		func(w *Workload) { w.UpdateRate = -1 },
		func(w *Workload) { w.VisitRatePerServer = -1 },
		func(w *Workload) { w.Servers = 0 },
		func(w *Workload) { w.TTL = 0 },
		func(w *Workload) { w.TreeDepth = 0 },
		func(w *Workload) { w.RTTSeconds = -1 },
	}
	for i, mut := range bad {
		w := baseWorkload()
		mut(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPredictTTL(t *testing.T) {
	w := baseWorkload()
	est, err := Predict(consistency.MethodTTL, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.StalenessSec-30.05) > 0.01 {
		t.Errorf("staleness = %v, want ~30s", est.StalenessSec)
	}
	// 50 servers polling every 60s: ~0.83 polls/s each way.
	if math.Abs(est.UpdateMsgsPerSec-50.0/60) > 1e-9 {
		t.Errorf("update msgs = %v", est.UpdateMsgsPerSec)
	}
	// Depth amplification.
	w.TreeDepth = 4
	est, err = Predict(consistency.MethodTTL, w)
	if err != nil {
		t.Fatal(err)
	}
	if est.StalenessSec < 110 {
		t.Errorf("depth-4 staleness = %v, want ~120s", est.StalenessSec)
	}
}

func TestPredictPush(t *testing.T) {
	est, err := Predict(consistency.MethodPush, baseWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if est.StalenessSec != 0.05 {
		t.Errorf("staleness = %v", est.StalenessSec)
	}
	if math.Abs(est.UpdateMsgsPerSec-50.0/30) > 1e-9 {
		t.Errorf("update msgs = %v", est.UpdateMsgsPerSec)
	}
	if est.LightMsgsPerSec != 0 {
		t.Errorf("light msgs = %v", est.LightMsgsPerSec)
	}
}

func TestPredictInvalidation(t *testing.T) {
	w := baseWorkload()
	est, err := Predict(consistency.MethodInvalidation, w)
	if err != nil {
		t.Fatal(err)
	}
	// Wait ~1/0.2 = 5s plus RTT.
	if math.Abs(est.StalenessSec-5.05) > 0.01 {
		t.Errorf("staleness = %v, want ~5s", est.StalenessSec)
	}
	// No visits: never fetches, infinite staleness.
	w.VisitRatePerServer = 0
	est, err = Predict(consistency.MethodInvalidation, w)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(est.StalenessSec, 1) {
		t.Errorf("no-visit staleness = %v, want +Inf", est.StalenessSec)
	}
	if est.UpdateMsgsPerSec != 0 {
		t.Errorf("no-visit fetches = %v, want 0", est.UpdateMsgsPerSec)
	}
}

func TestPredictLeaseRegimes(t *testing.T) {
	hot := baseWorkload() // visit rate 0.2/s, TTL 60s -> always active
	est, err := Predict(consistency.MethodLease, hot)
	if err != nil {
		t.Fatal(err)
	}
	push, _ := Predict(consistency.MethodPush, hot)
	if math.Abs(est.UpdateMsgsPerSec-push.UpdateMsgsPerSec) > 1e-9 {
		t.Errorf("hot lease msgs %v != push %v", est.UpdateMsgsPerSec, push.UpdateMsgsPerSec)
	}
	cold := baseWorkload()
	cold.VisitRatePerServer = 0
	est, err = Predict(consistency.MethodLease, cold)
	if err != nil {
		t.Fatal(err)
	}
	if est.UpdateMsgsPerSec != 0 {
		t.Errorf("cold lease msgs = %v, want 0", est.UpdateMsgsPerSec)
	}
}

func TestPredictUnknownMethod(t *testing.T) {
	if _, err := Predict(consistency.MethodSelfAdaptive, baseWorkload()); err == nil {
		t.Error("unmodeled method accepted")
	}
	w := baseWorkload()
	w.Servers = 0
	if _, err := Predict(consistency.MethodTTL, w); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestCheapestWithin(t *testing.T) {
	w := baseWorkload()
	all := []consistency.Method{
		consistency.MethodTTL, consistency.MethodPush, consistency.MethodInvalidation,
	}
	// Tight budget (1s): only Push qualifies.
	est, err := CheapestWithin(time.Second, w, 100, 1, all)
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != consistency.MethodPush {
		t.Errorf("tight budget chose %v", est.Method)
	}
	// Loose budget (60s) with dense 100KB updates: TTL aggregates and is
	// the cheapest in bytes.
	w.UpdateRate = 1.0 / 5
	est, err = CheapestWithin(time.Minute, w, 100, 1, all)
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != consistency.MethodTTL {
		t.Errorf("loose budget chose %v", est.Method)
	}
	// Cold content (visits rarer than updates), 100KB updates, 10s
	// budget is impossible for TTL; Invalidation's sparse fetches beat
	// pushing every 100KB update.
	w.VisitRatePerServer = 1.0 / 15
	est, err = CheapestWithin(16*time.Second, w, 100, 1, all)
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != consistency.MethodInvalidation {
		t.Errorf("cold content chose %v", est.Method)
	}
	// Impossible budget.
	if _, err := CheapestWithin(time.Millisecond, w, 100, 1, all); err == nil {
		t.Error("impossible budget satisfied")
	}
	if _, err := CheapestWithin(time.Second, w, 100, 1, nil); err == nil {
		t.Error("no candidates accepted")
	}
	if _, err := CheapestWithin(time.Second, w, 0, 1, all); err == nil {
		t.Error("zero payload size accepted")
	}
}

// Model-vs-simulation validation: on a steady workload the model's
// staleness and message-rate predictions match the discrete-event
// simulation within a factor of 2, and the cross-method orderings agree.
func TestModelMatchesSimulation(t *testing.T) {
	const (
		servers  = 40
		users    = 2
		userTTL  = 10 * time.Second
		duration = 30 * time.Minute
		gap      = 25 * time.Second
	)
	game := workload.GameConfig{
		Phases: []workload.Phase{{Name: "live", Duration: duration, MeanGap: gap}},
		SizeKB: 1,
	}
	updates, err := workload.Schedule(game, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{
		UpdateRate:         float64(len(updates)) / duration.Seconds(),
		VisitRatePerServer: float64(users) / userTTL.Seconds(),
		Servers:            servers,
		TTL:                60 * time.Second,
		TreeDepth:          1,
		RTTSeconds:         0.05,
	}

	type obs struct {
		staleness float64
		msgRate   float64
	}
	simulated := map[consistency.Method]obs{}
	modeled := map[consistency.Method]obs{}
	// The effective horizon over which messages accumulate.
	horizon := (60*time.Second + updates[len(updates)-1].At + 5*time.Minute).Seconds()
	for _, m := range []consistency.Method{
		consistency.MethodTTL, consistency.MethodPush, consistency.MethodInvalidation,
	} {
		res, err := cdn.Run(cdn.Config{
			Method:   m,
			Infra:    consistency.InfraUnicast,
			Topology: topology.Config{Servers: servers, UsersPerServer: users, Seed: 3},
			Updates:  updates,
			UserTTL:  userTTL,
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		simulated[m] = obs{
			staleness: res.MeanServerInconsistency(),
			msgRate:   float64(res.UpdateMsgsToServers+res.LightMsgs) / horizon,
		}
		est, err := Predict(m, w)
		if err != nil {
			t.Fatal(err)
		}
		modeled[m] = obs{staleness: est.StalenessSec, msgRate: est.UpdateMsgsPerSec + est.LightMsgsPerSec}
	}

	within := func(a, b, factor float64) bool {
		if a == 0 || b == 0 {
			return math.Abs(a-b) < 0.5
		}
		r := a / b
		return r > 1/factor && r < factor
	}
	for m, sim := range simulated {
		mod := modeled[m]
		if !within(sim.staleness+0.1, mod.staleness+0.1, 2.5) {
			t.Errorf("%v staleness: sim %.2fs vs model %.2fs", m, sim.staleness, mod.staleness)
		}
		if !within(sim.msgRate, mod.msgRate, 2.5) {
			t.Errorf("%v msg rate: sim %.3f/s vs model %.3f/s", m, sim.msgRate, mod.msgRate)
		}
	}
	// Ordering agreement on staleness: Push < Invalidation < TTL both ways.
	if !(simulated[consistency.MethodPush].staleness < simulated[consistency.MethodInvalidation].staleness &&
		simulated[consistency.MethodInvalidation].staleness < simulated[consistency.MethodTTL].staleness) {
		t.Error("simulation ordering broken")
	}
	if !(modeled[consistency.MethodPush].staleness < modeled[consistency.MethodInvalidation].staleness &&
		modeled[consistency.MethodInvalidation].staleness < modeled[consistency.MethodTTL].staleness) {
		t.Error("model ordering broken")
	}
}
