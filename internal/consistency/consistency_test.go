package consistency

import (
	"testing"
	"time"
)

func TestMethodStrings(t *testing.T) {
	tests := []struct {
		m    Method
		want string
	}{
		{MethodTTL, "TTL"}, {MethodPush, "Push"},
		{MethodInvalidation, "Invalidation"}, {MethodSelfAdaptive, "Self"},
		{MethodAdaptiveTTL, "AdaptiveTTL"}, {MethodLease, "Lease"},
		{MethodRegime, "Regime"}, {Method(42), "Method(42)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.m), got, tt.want)
		}
	}
	if !MethodTTL.Valid() || !MethodLease.Valid() || Method(0).Valid() || Method(99).Valid() {
		t.Error("Method.Valid wrong")
	}
}

func TestInfraStrings(t *testing.T) {
	if InfraUnicast.String() != "Unicast" || InfraMulticast.String() != "Multicast" ||
		InfraHybrid.String() != "Hybrid" || InfraBroadcast.String() != "Broadcast" ||
		Infra(9).String() != "Infra(9)" {
		t.Error("Infra.String wrong")
	}
	if !InfraHybrid.Valid() || !InfraBroadcast.Valid() || Infra(0).Valid() {
		t.Error("Infra.Valid wrong")
	}
}

func TestModeString(t *testing.T) {
	if ModeTTL.String() != "ttl" || ModeInvalidationIdle.String() != "invalidation-idle" ||
		ModeInvalidated.String() != "invalidated" || Mode(7).String() != "mode(7)" {
		t.Error("Mode.String wrong")
	}
}

// The Algorithm 1 happy path: frequent updates keep TTL mode; a silent poll
// switches to Invalidation; the invalidation plus a visit switches back.
func TestSelfAdaptiveFullCycle(t *testing.T) {
	s := NewSelfAdaptive()
	if s.Mode() != ModeTTL {
		t.Fatalf("initial mode = %v", s.Mode())
	}

	// Updates keep arriving: stay in TTL, no notifications.
	for i := 0; i < 3; i++ {
		notify, err := s.OnPollResult(true)
		if err != nil || notify {
			t.Fatalf("poll with update: notify=%v err=%v", notify, err)
		}
	}
	if s.switches != 0 {
		t.Fatalf("switches = %d", s.switches)
	}

	// Silence: switch to Invalidation and notify the provider.
	notify, err := s.OnPollResult(false)
	if err != nil || !notify {
		t.Fatalf("silent poll: notify=%v err=%v", notify, err)
	}
	if s.Mode() != ModeInvalidationIdle {
		t.Fatalf("mode = %v, want invalidation-idle", s.Mode())
	}

	// Visits during idle invalidation do nothing.
	if s.OnVisit() {
		t.Error("visit before invalidation requested a poll")
	}

	// Invalidation arrives, then the first visit polls and switches back.
	s.OnInvalidation()
	if s.Mode() != ModeInvalidated {
		t.Fatalf("mode = %v, want invalidated", s.Mode())
	}
	if !s.OnVisit() {
		t.Error("visit after invalidation did not request a poll")
	}
	if s.Mode() != ModeTTL {
		t.Fatalf("mode = %v, want ttl", s.Mode())
	}
	if s.switches != 2 {
		t.Errorf("switches = %d, want 2", s.switches)
	}
}

func TestSelfAdaptivePollOutsideTTLMode(t *testing.T) {
	s := NewSelfAdaptive()
	if _, err := s.OnPollResult(false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OnPollResult(true); err == nil {
		t.Error("poll in invalidation mode accepted")
	}
}

func TestSelfAdaptiveSpuriousInvalidationIgnored(t *testing.T) {
	s := NewSelfAdaptive()
	s.OnInvalidation() // still in TTL mode: must be ignored
	if s.Mode() != ModeTTL {
		t.Errorf("spurious invalidation changed mode to %v", s.Mode())
	}
	if s.OnVisit() {
		t.Error("visit in TTL mode requested a poll")
	}
}

func TestSelfAdaptiveRepeatedInvalidationIdempotent(t *testing.T) {
	s := NewSelfAdaptive()
	s.OnPollResult(false)
	s.OnInvalidation()
	s.OnInvalidation() // duplicate notice
	if s.Mode() != ModeInvalidated {
		t.Errorf("mode = %v", s.Mode())
	}
	if !s.OnVisit() {
		t.Error("visit did not trigger poll")
	}
	if s.OnVisit() {
		t.Error("second visit triggered another poll")
	}
}

func TestAdaptiveTTLDefaults(t *testing.T) {
	a, err := NewAdaptiveTTL(AdaptiveTTLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NextTTL(); got != 10*time.Second {
		t.Errorf("initial NextTTL = %v, want MinTTL 10s", got)
	}
}

func TestAdaptiveTTLValidation(t *testing.T) {
	bad := []AdaptiveTTLConfig{
		{Alpha: 1.5},
		{Alpha: -0.1},
		{Factor: -1},
		{MinTTL: -time.Second},
		{MinTTL: time.Minute, MaxTTL: time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewAdaptiveTTL(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestAdaptiveTTLTracksGaps(t *testing.T) {
	a, err := NewAdaptiveTTL(AdaptiveTTLConfig{Alpha: 0.5, Factor: 1, MinTTL: time.Second, MaxTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Updates every 30 s: the prediction converges toward 30 s.
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		a.ObserveUpdate(now)
		now += 30 * time.Second
	}
	got := a.NextTTL()
	if got < 25*time.Second || got > 35*time.Second {
		t.Errorf("NextTTL = %v, want ~30s", got)
	}
}

func TestAdaptiveTTLBacksOffOnMisses(t *testing.T) {
	a, err := NewAdaptiveTTL(AdaptiveTTLConfig{Alpha: 0.5, Factor: 1, MinTTL: time.Second, MaxTTL: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	a.ObserveUpdate(0)
	a.ObserveUpdate(10 * time.Second)
	before := a.NextTTL()
	for i := 0; i < 30; i++ {
		a.ObserveMiss()
	}
	after := a.NextTTL()
	if after <= before {
		t.Errorf("misses did not grow TTL: %v -> %v", before, after)
	}
	if after > 5*time.Minute {
		t.Errorf("TTL %v exceeded max", after)
	}
}

func TestAdaptiveTTLIgnoresNonPositiveGap(t *testing.T) {
	a, err := NewAdaptiveTTL(AdaptiveTTLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a.ObserveUpdate(10 * time.Second)
	before := a.NextTTL()
	a.ObserveUpdate(10 * time.Second) // zero gap must not zero the EWMA
	if got := a.NextTTL(); got != before {
		t.Errorf("zero gap changed TTL %v -> %v", before, got)
	}
}
