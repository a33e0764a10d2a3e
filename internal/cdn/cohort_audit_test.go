package cdn

import (
	"errors"
	"testing"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
)

// cohortAuditConfig is auditTestConfig over the cohort user model: a small
// heavy-tailed population, batched visit accounting on, auditor at maximum
// cadence.
func cohortAuditConfig(t *testing.T) Config {
	t.Helper()
	cfg := auditTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast)
	cfg.Topology.Servers = 12
	cfg.Population = equivPopulation(t, 12, 110, 3)
	cfg.UserModel = UserModelCohort
	cfg.AccountVisits = true
	return cfg
}

// The auditor must catch cohort bookkeeping corruption: population counts are
// conserved across churn and re-homing, and the batched visit traffic must
// stay in lockstep with the ledger. Each case corrupts one piece of state
// behind the simulation's back mid-run and expects the named property to fire.
func TestAuditorCatchesCohortCorruption(t *testing.T) {
	cases := []struct {
		name     string
		corrupt  func(s *simulation)
		property string
	}{
		{
			name:     "cohort count inflated",
			corrupt:  func(s *simulation) { s.um.(*cohortUsers).cohorts[0].count++ },
			property: "cohort-conservation",
		},
		{
			name:     "cohort count drained",
			corrupt:  func(s *simulation) { s.um.(*cohortUsers).cohorts[2].count = 0 },
			property: "cohort-conservation",
		},
		{
			name:     "cohort homed at the provider",
			corrupt:  func(s *simulation) { s.um.(*cohortUsers).cohorts[1].home = 0 },
			property: "cohort-conservation",
		},
		{
			name: "cohort parked on a crashed server",
			corrupt: func(s *simulation) {
				m := s.um.(*cohortUsers)
				home := m.cohorts[0].home
				s.failServer(home)
				// The population's offsets are distinct, so the first
				// visitor heads its instant's list.
				c := m.firstVisitor(home)
				m.unindex(c)
				s.cell(home).eng.Cancel(c.timer)
				c.armed = false
			},
			property: "cohort-parked-passive",
		},
		{
			name:     "unledgered visit",
			corrupt:  func(s *simulation) { s.cells[0].visitsAccounted++ },
			property: "visit-traffic-conservation",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg, err := cohortAuditConfig(t).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.at(0, 4*time.Minute, func() { tc.corrupt(s) })
			_, err = s.run()
			var v *audit.Violation
			if !errors.As(err, &v) {
				t.Fatalf("corrupted run returned %v, want an audit violation", err)
			}
			if v.Property != tc.property {
				t.Fatalf("violation property %q, want %q (detail: %s)", v.Property, tc.property, v.Detail)
			}
		})
	}
}

// An uncorrupted cohort run under the same maximum-cadence auditor must be
// certified clean — the conservation invariants hold across the whole run.
func TestAuditCleanCohortModel(t *testing.T) {
	res, err := Run(cohortAuditConfig(t))
	if err != nil {
		t.Fatalf("audited cohort run failed: %v", err)
	}
	if res.AuditChecks == 0 {
		t.Fatal("auditor never ran")
	}
}

// The cohort visit body — the per-period steady-state work that replaces
// count individual visits — must not allocate: a million-user sweep runs
// millions of these, and the fixed-memory claim depends on the visit path
// staying off the heap. The reschedule is measured separately by the engine
// benchmarks (PR 4); here the visit body is measured directly.
func TestCohortVisitSteadyStateZeroAlloc(t *testing.T) {
	cfg, err := cohortAuditConfig(t).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Audit = nil
	s, err := newSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.um.schedule(); err != nil {
		t.Fatal(err)
	}
	m := s.um.(*cohortUsers)
	c := m.cohorts[0]
	m.visit(c) // warm up: interns the endpoint, sizes the ledger
	if avg := testing.AllocsPerRun(1000, func() { m.visit(c) }); avg != 0 {
		t.Fatalf("cohort visit allocated %.2f times per run, want 0", avg)
	}
	// The fold books a parked cohort's visits in place: park every cohort
	// and settle a few periods at a time across the publications.
	for _, c := range m.cohorts {
		c.armed = false
	}
	through := time.Duration(0)
	if avg := testing.AllocsPerRun(1000, func() {
		through += 3 * c.period
		m.settleAll(through, true)
	}); avg != 0 {
		t.Fatalf("cohort fold allocated %.2f times per run, want 0", avg)
	}
	if c.leader.observations < 1000 {
		t.Fatalf("the fold booked %d observations, want one per visit", c.leader.observations)
	}
}
