package sim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// scheduleN queues n events one microsecond apart, each bumping *fired.
func scheduleN(t *testing.T, e *Engine, n int, fired *int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if _, err := e.ScheduleAt(time.Duration(i)*time.Microsecond, func(*Engine) { *fired++ }); err != nil {
			t.Fatalf("ScheduleAt: %v", err)
		}
	}
}

// The tick runs once per tickStride processed events, and never between.
func TestTickRunsEveryStride(t *testing.T) {
	e := NewEngine(1)
	var fired int
	scheduleN(t, e, 3*tickStride+5, &fired)
	var at []uint64
	e.SetTick(func() error {
		at = append(at, e.Processed())
		return nil
	})
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []uint64{tickStride, 2 * tickStride, 3 * tickStride}; !slices.Equal(at, want) {
		t.Errorf("tick ran at processed counts %v, want %v", at, want)
	}
	if fired != 3*tickStride+5 {
		t.Errorf("%d handlers fired, want %d", fired, 3*tickStride+5)
	}
}

// A tick's error aborts Run with that error at the stride it is returned
// on: no later event is processed.
func TestTickErrorAbortsRun(t *testing.T) {
	e := NewEngine(1)
	var fired int
	total := 3 * tickStride
	scheduleN(t, e, total, &fired)
	errStop := errors.New("stop")
	e.SetTick(func() error { return errStop })
	if err := e.Run(0); !errors.Is(err, errStop) {
		t.Fatalf("Run = %v, want the tick's error", err)
	}
	if e.Processed() != tickStride {
		t.Errorf("processed %d events, want %d", e.Processed(), tickStride)
	}
	if fired > tickStride {
		t.Errorf("%d handlers fired after the tick aborted at %d", fired, tickStride)
	}
}

// SetTick(nil) removes an installed tick.
func TestSetTickNilRemovesHook(t *testing.T) {
	e := NewEngine(1)
	var fired int
	scheduleN(t, e, 2*tickStride, &fired)
	calls := 0
	e.SetTick(func() error { calls++; return nil })
	e.SetTick(nil)
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 0 {
		t.Errorf("removed tick ran %d times", calls)
	}
	if fired != 2*tickStride {
		t.Errorf("%d handlers fired, want %d", fired, 2*tickStride)
	}
}

// A tick that returns nil does not perturb the run: the same seed yields
// the same event sequence, clock and random draws with or without it.
func TestTickDoesNotPerturbRun(t *testing.T) {
	trace := func(withTick bool) ([]time.Duration, time.Duration, int64) {
		e := NewEngine(7)
		var seen []time.Duration
		var h Handler
		h = func(en *Engine) {
			seen = append(seen, en.Now())
			if len(seen) < 3*tickStride {
				en.ScheduleAfter(time.Duration(en.Rand().Intn(1000)+1)*time.Microsecond, h)
			}
		}
		e.ScheduleAfter(0, h)
		if withTick {
			e.SetTick(func() error { return nil })
		}
		if err := e.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return seen, e.Now(), e.Rand().Int63()
	}
	plain, plainNow, plainDraw := trace(false)
	ticked, tickedNow, tickedDraw := trace(true)
	if !slices.Equal(plain, ticked) {
		t.Errorf("event sequence differs with a tick installed")
	}
	if plainNow != tickedNow || plainDraw != tickedDraw {
		t.Errorf("end state differs with a tick: now %v vs %v, next draw %d vs %d",
			plainNow, tickedNow, plainDraw, tickedDraw)
	}
}
