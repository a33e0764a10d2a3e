package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleAtOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []time.Duration
	times := []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 2 * time.Second}
	for _, at := range times {
		at := at
		if _, err := e.ScheduleAt(at, func(*Engine) { got = append(got, at) }); err != nil {
			t.Fatalf("ScheduleAt(%v): %v", at, err)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := append([]time.Duration(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFIFOForEqualTimestamps(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		if _, err := e.ScheduleAt(time.Second, func(*Engine) { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d: got %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

// An event armed late with a reserved sequence number fires, among the
// events at its time, where one scheduled at the reservation would have:
// before events scheduled after the reservation, lane events included.
func TestReservedSequenceKeepsItsPlace(t *testing.T) {
	e := NewEngine(1)
	e.Periodic(5 * time.Second)
	first := e.Reserve(2)
	var order []int64
	record := func(_ *Engine, _ any, arg int64) { order = append(order, arg) }
	e.ScheduleAtFunc(5*time.Second, record, nil, 3) // the lane
	e.ScheduleAtFunc(5*time.Second, record, nil, 4) // the lane
	if _, err := e.ScheduleAtFuncSeq(5*time.Second, first+1, record, nil, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScheduleAtFuncSeq(5*time.Second, first, record, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine(1)
	e.ScheduleAfter(10*time.Second, func(en *Engine) {
		if _, err := en.ScheduleAt(5*time.Second, func(*Engine) {}); err == nil {
			t.Error("scheduling in the past succeeded, want error")
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	timer := e.ScheduleAfter(time.Second, func(*Engine) { fired = true })
	if !e.Cancel(timer) {
		t.Fatal("Cancel reported false for a live timer")
	}
	if e.Cancel(timer) {
		t.Error("second Cancel reported true")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestHorizonStopsAndAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.ScheduleAfter(time.Second, func(*Engine) { fired++ })
	e.ScheduleAfter(10*time.Second, func(*Engine) { fired++ })
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", e.Now())
	}
	// The remaining event still fires on a later Run.
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2 after second Run", fired)
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.ScheduleAfter(5*time.Second, func(*Engine) { fired = true })
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event at exactly the horizon did not fire")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.ScheduleAfter(time.Second, func(en *Engine) {
		count++
		en.Stop()
	})
	e.ScheduleAfter(2*time.Second, func(*Engine) { count++ })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1 (Stop did not halt the run)", count)
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	var at []time.Duration
	stop, err := e.Every(time.Second, func(en *Engine) {
		at = append(at, en.Now())
		if len(at) == 3 {
			// stop is captured below; cancel from inside the tick.
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.ScheduleAfter(3500*time.Millisecond, func(*Engine) { stop() })
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(at) != len(want) {
		t.Fatalf("ticks at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestEveryRejectsNonPositive(t *testing.T) {
	e := NewEngine(1)
	if _, err := e.Every(0, func(*Engine) {}); err == nil {
		t.Error("Every(0) succeeded, want error")
	}
	if _, err := e.Every(-time.Second, func(*Engine) {}); err == nil {
		t.Error("Every(-1s) succeeded, want error")
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine(1)
	e.SetMaxEvents(10)
	var tick Handler
	tick = func(en *Engine) { en.ScheduleAfter(time.Second, tick) }
	e.ScheduleAfter(time.Second, tick)
	if err := e.Run(0); err != ErrEventLimit {
		t.Errorf("Run = %v, want ErrEventLimit", err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := NewEngine(seed)
		var out []time.Duration
		for i := 0; i < 50; i++ {
			e.ScheduleAfter(time.Duration(e.Rand().Intn(1000))*time.Millisecond, func(en *Engine) {
				out = append(out, en.Now())
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of delays, events fire in non-decreasing time order
// and the engine clock never goes backwards.
func TestPropertyTimeMonotone(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		e := NewEngine(7)
		var fireTimes []time.Duration
		for _, d := range delaysMS {
			e.ScheduleAfter(time.Duration(d)*time.Millisecond, func(en *Engine) {
				fireTimes = append(fireTimes, en.Now())
			})
		}
		if err := e.Run(0); err != nil {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return len(fireTimes) == len(delaysMS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: nested scheduling preserves causality — a handler scheduling a
// follow-up at +d always observes the follow-up at a time >= its own.
func TestPropertyCausality(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		var spawn Handler
		remaining := int(n)
		spawn = func(en *Engine) {
			if remaining <= 0 {
				return
			}
			remaining--
			parent := en.Now()
			d := time.Duration(rng.Intn(100)) * time.Millisecond
			en.ScheduleAfter(d, func(en2 *Engine) {
				if en2.Now() < parent {
					ok = false
				}
				spawn(en2)
			})
		}
		e.ScheduleAfter(0, spawn)
		if err := e.Run(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSchedulePop(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(time.Duration(i%1000)*time.Millisecond, func(*Engine) {})
	}
	if err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

func TestEventLimitStateConsistent(t *testing.T) {
	// Regression: the cap used to be checked after the limiting event was
	// popped, retired, and had advanced the clock — leaving Processed one
	// past the cap, the unrun event gone from Pending, and Now at a time
	// no executed event reached. The cap must be checked before the event
	// is consumed.
	e := NewEngine(1)
	e.SetMaxEvents(3)
	var fired []time.Duration
	for i := 1; i <= 5; i++ {
		at := time.Duration(i) * time.Second
		if _, err := e.ScheduleAt(at, func(en *Engine) { fired = append(fired, en.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(0); err != ErrEventLimit {
		t.Fatalf("Run = %v, want ErrEventLimit", err)
	}
	if got := e.Processed(); got != 3 {
		t.Errorf("Processed = %d, want 3 (the cap)", got)
	}
	if got := e.Now(); got != 3*time.Second {
		t.Errorf("Now = %v, want 3s (last event that actually ran)", got)
	}
	if got := e.live; got != 2 {
		t.Errorf("live = %d, want 2 (the limiting event must stay queued)", got)
	}
	// The post-limit state is resumable: lifting the cap runs the rest.
	e.SetMaxEvents(0)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestStopBeforeRun(t *testing.T) {
	// Regression: Run used to clear the stopped flag on entry, so a Stop
	// racing engine start was silently ignored. A pre-armed Stop must make
	// the next Run return immediately; the stop is consumed, so a later
	// Run resumes normally.
	e := NewEngine(1)
	fired := 0
	e.ScheduleAfter(time.Second, func(*Engine) { fired++ })
	e.Stop()
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("fired = %d, want 0: pre-armed Stop was ignored", fired)
	}
	if got := e.live; got != 1 {
		t.Errorf("live = %d, want 1", got)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1 after resumed Run", fired)
	}
}

func TestPeekTime(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime ok on empty engine")
	}
	early := e.ScheduleAfter(time.Second, func(*Engine) {})
	e.ScheduleAfter(3*time.Second, func(*Engine) {})
	if at, ok := e.PeekTime(); !ok || at != time.Second {
		t.Fatalf("PeekTime = %v, %v; want 1s, true", at, ok)
	}
	// Cancelling the head leaves a tombstone; PeekTime must skim past it.
	e.Cancel(early)
	if at, ok := e.PeekTime(); !ok || at != 3*time.Second {
		t.Fatalf("PeekTime after cancel = %v, %v; want 3s, true", at, ok)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if _, err := e.ScheduleAt(at, func(en *Engine) { fired = append(fired, en.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	// Strictly-before semantics: the event at exactly the boundary stays.
	if err := e.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != time.Second {
		t.Fatalf("fired = %v, want [1s]", fired)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s (clock advances to the window end)", e.Now())
	}
	if e.live != 2 {
		t.Errorf("live = %d, want 2", e.live)
	}
	// Going backwards is a causality error.
	if err := e.RunUntil(time.Second); err == nil {
		t.Error("RunUntil before now succeeded")
	}
	if err := e.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || e.Now() != 10*time.Second {
		t.Fatalf("fired = %v, Now = %v; want 3 events and 10s", fired, e.Now())
	}
}

func TestClampNow(t *testing.T) {
	e := NewEngine(1)
	if _, err := e.ScheduleAt(2*time.Second, func(*Engine) {}); err != nil {
		t.Fatal(err)
	}
	// RunUntil overshoots the last executed event; ClampNow pulls the clock
	// back anywhere in the dead zone between them.
	if err := e.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.ClampNow(6 * time.Second); err != nil || e.Now() != 5*time.Second {
		t.Errorf("ClampNow above now: err=%v Now=%v, want no-op at 5s", err, e.Now())
	}
	if err := e.ClampNow(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
	// Clamping to exactly the last executed event is allowed...
	if err := e.ClampNow(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", e.Now())
	}
	// ...but rewinding across it would fabricate an inconsistent timeline.
	if err := e.ClampNow(time.Second); err == nil {
		t.Error("ClampNow before the last executed event succeeded")
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v after rejected clamp, want 2s", e.Now())
	}
	// A fresh engine that never ran an event can clamp to zero only.
	f := NewEngine(1)
	if err := f.ClampNow(0); err != nil {
		t.Errorf("ClampNow(0) on fresh engine: %v", err)
	}
}
