package consistency

import (
	"testing"
	"time"
)

func feed(rc *RegimeController, visitGap, updateGap time.Duration, span time.Duration) {
	if visitGap > 0 {
		for t := visitGap; t <= span; t += visitGap {
			rc.ObserveVisit(t)
		}
	}
	if updateGap > 0 {
		for t := updateGap; t <= span; t += updateGap {
			rc.ObserveUpdate(t)
		}
	}
}

func newRC(t *testing.T) *RegimeController {
	t.Helper()
	rc, err := NewRegimeController(RegimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func TestRegimeConfigValidation(t *testing.T) {
	bad := []RegimeConfig{
		{Alpha: 1.5},
		{Alpha: -0.2},
		{PushRatio: 0.1, InvalidateRatio: 0.5},
		{Hysteresis: 0.5},
	}
	for i, cfg := range bad {
		if _, err := NewRegimeController(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRegimeStartsTTLAndHoldsWithoutData(t *testing.T) {
	rc := newRC(t)
	if rc.Regime() != RegimeTTL {
		t.Fatalf("initial regime = %v", rc.Regime())
	}
	if rc.Decide() {
		t.Error("Decide switched with no observations")
	}
	rc.ObserveVisit(time.Second) // visits only, still no update info
	if rc.Decide() {
		t.Error("Decide switched with visits only")
	}
}

func TestRegimePicksPushWhenHot(t *testing.T) {
	rc := newRC(t)
	// Visits every 2s, updates every 60s: ratio 30 >> 3.
	feed(rc, 2*time.Second, 60*time.Second, 10*time.Minute)
	if !rc.Decide() {
		t.Fatal("Decide did not switch")
	}
	if rc.Regime() != RegimePush {
		t.Errorf("regime = %v, want push", rc.Regime())
	}
}

func TestRegimePicksInvalidationWhenCold(t *testing.T) {
	rc := newRC(t)
	// Visits every 5 minutes, updates every 10s: ratio 1/30 << 1/3.
	feed(rc, 5*time.Minute, 10*time.Second, 30*time.Minute)
	rc.Decide()
	if rc.Regime() != RegimeInvalidation {
		t.Errorf("regime = %v, want invalidation", rc.Regime())
	}
}

func TestRegimeKeepsTTLWhenBalanced(t *testing.T) {
	rc := newRC(t)
	// Visits every 10s, updates every 10s: ratio 1 inside (1/3, 3).
	feed(rc, 10*time.Second, 10*time.Second, 10*time.Minute)
	if rc.Decide() {
		t.Error("balanced rates switched away from TTL")
	}
	if rc.Regime() != RegimeTTL {
		t.Errorf("regime = %v, want ttl", rc.Regime())
	}
}

func TestRegimeHysteresisPreventsFlapping(t *testing.T) {
	rc, err := NewRegimeController(RegimeConfig{PushRatio: 3, Hysteresis: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Push the ratio just above 3 -> Push.
	feed(rc, 3*time.Second, 10*time.Second, 5*time.Minute)
	rc.Decide()
	if rc.Regime() != RegimePush {
		t.Fatalf("regime = %v, want push (ratio ~3.3)", rc.Regime())
	}
	// Drift the ratio down to ~2: with hysteresis 2 the effective exit
	// threshold is 1.5, so the controller stays in Push.
	feed2 := func(visitGap time.Duration, from, span time.Duration) {
		for t := from; t <= from+span; t += visitGap {
			rc.ObserveVisit(t)
		}
		for t := from; t <= from+span; t += 10 * time.Second {
			rc.ObserveUpdate(t)
		}
	}
	feed2(5*time.Second, 6*time.Minute, 5*time.Minute)
	if rc.Decide() {
		t.Errorf("hysteresis failed: switched to %v at ratio ~2", rc.Regime())
	}
}

func TestRegimeTracksWorkloadShift(t *testing.T) {
	rc := newRC(t)
	// Hot phase -> Push.
	feed(rc, 2*time.Second, 60*time.Second, 5*time.Minute)
	rc.Decide()
	if rc.Regime() != RegimePush {
		t.Fatalf("hot phase regime = %v", rc.Regime())
	}
	// Cold phase: visits stop, updates accelerate -> Invalidation.
	for ts := 6 * time.Minute; ts <= 30*time.Minute; ts += 2 * time.Second {
		rc.ObserveUpdate(ts)
	}
	for ts := 6 * time.Minute; ts <= 30*time.Minute; ts += 4 * time.Minute {
		rc.ObserveVisit(ts)
	}
	rc.Decide()
	if rc.Regime() != RegimeInvalidation {
		t.Errorf("cold phase regime = %v, want invalidation", rc.Regime())
	}
	if rc.switches != 2 {
		t.Errorf("switches = %d, want 2", rc.switches)
	}
}

func TestRegimeString(t *testing.T) {
	if RegimePush.String() != "push" || RegimeTTL.String() != "ttl" ||
		RegimeInvalidation.String() != "invalidation" || Regime(9).String() != "regime(9)" {
		t.Error("Regime.String wrong")
	}
}

func TestRegimeRatesExposed(t *testing.T) {
	rc := newRC(t)
	feed(rc, 10*time.Second, 20*time.Second, 10*time.Minute)
	if v := rc.visitEWMA; v < 0.05 || v > 0.2 {
		t.Errorf("visit rate = %v, want ~0.1/s", v)
	}
	if u := rc.UpdateRate(); u < 0.025 || u > 0.1 {
		t.Errorf("update rate = %v, want ~0.05/s", u)
	}
}
