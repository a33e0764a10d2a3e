package sim

import (
	"testing"
	"time"
)

// nopEvent is a static FuncHandler; scheduling it must not allocate.
func nopEvent(*Engine, any, int64) {}

// queueModes name the two places an event can wait: the heap, or the FIFO
// lane of a delay declared with Periodic.
var queueModes = []struct {
	name  string
	laned bool
}{{"heap", false}, {"lane", true}}

// TestSteadyStateScheduleRunAllocFree pins the engine's core guarantee: once
// the slot table and heap (or lane ring) have warmed up, a schedule+fire
// cycle allocates nothing — for both the Handler form (with a pre-built func
// value) and the closure-free FuncHandler form.
func TestSteadyStateScheduleRunAllocFree(t *testing.T) {
	for _, m := range queueModes {
		t.Run(m.name, func(t *testing.T) {
			e := NewEngine(1)
			if m.laned {
				e.Periodic(time.Microsecond)
			}
			var h Handler = func(*Engine) {}
			// Warm up: grow the heap or ring, slot table, and free list to
			// steady state.
			for i := 0; i < 128; i++ {
				e.ScheduleAfter(time.Duration(i), h)
				e.ScheduleAfter(time.Microsecond, h)
			}
			if err := e.Run(0); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(200, func() {
				e.ScheduleAfter(time.Microsecond, h)
				e.ScheduleAfterFunc(time.Microsecond, nopEvent, e, 7)
				if err := e.Run(0); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state schedule+run costs %v allocs/op, want 0", avg)
			}
			if m.laned && cap(e.queue) > 128 {
				t.Fatalf("heap grew to cap %d: the lane delay's events took the heap", cap(e.queue))
			}
		})
	}
}

// TestCancelAllocFree pins Cancel's O(1), allocation-free path.
func TestCancelAllocFree(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 128; i++ {
		e.ScheduleAfterFunc(time.Duration(i), nopEvent, e, 0)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		tm := e.ScheduleAfterFunc(time.Hour, nopEvent, e, 0)
		if !e.Cancel(tm) {
			t.Fatal("cancel of a live timer failed")
		}
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel costs %v allocs/op, want 0", avg)
	}
}

// TestCancelChurnBoundsQueue is the regression test for unbounded dead-event
// retention: scheduling and immediately cancelling events over and over must
// not grow the heap, because compaction strips tombstones once they dominate.
// (Before lazy-cancellation compaction, each round left its tombstones in the
// heap until Run drained past them, so maxQ here grew to rounds*batch.)
func TestCancelChurnBoundsQueue(t *testing.T) {
	e := NewEngine(1)
	const rounds, batch = 2000, 10
	var timers [batch]Timer
	maxQ := 0
	for round := 0; round < rounds; round++ {
		for i := range timers {
			timers[i] = e.ScheduleAfterFunc(time.Hour, nopEvent, e, 0)
		}
		for _, tm := range timers {
			e.Cancel(tm)
		}
		if q := e.queueLen(); q > maxQ {
			maxQ = q
		}
	}
	if e.live != 0 {
		t.Fatalf("live = %d after cancelling everything, want 0", e.live)
	}
	// Live events never exceed batch; the physical queue may additionally
	// hold up to ~compactMinQueue+batch tombstones between compactions.
	if limit := 2*compactMinQueue + batch; maxQ > limit {
		t.Fatalf("queue grew to %d under cancel churn (limit %d): tombstones are being retained", maxQ, limit)
	}
}

// TestEveryCancelChurnBoundsQueue exercises the same property through the
// public periodic API: a drive loop that stops its Every ticker and starts
// a fresh one on each firing, thousands of times, must keep the queue small.
// In the lane variant both periods are declared, so the tombstones sit in
// a lane, where queueLen counts them and compaction must strip them.
func TestEveryCancelChurnBoundsQueue(t *testing.T) {
	for _, m := range queueModes {
		t.Run(m.name, func(t *testing.T) {
			e := NewEngine(1)
			if m.laned {
				e.Periodic(time.Hour)
				e.Periodic(time.Second)
			}
			const cycles = 5000
			var (
				stop        func()
				fired       int
				maxQ, maxLn int
			)
			rearm := func(en *Engine) {
				fired++
				stop()
				if q := en.queueLen(); q > maxQ {
					maxQ = q
				}
				for _, l := range en.lanes {
					maxLn = max(maxLn, l.n)
				}
				var err error
				stop, err = en.Every(time.Hour, func(*Engine) {}) // never fires within the horizon
				if err != nil {
					t.Fatal(err)
				}
			}
			// A standing event ahead of the churn: in a lane it keeps the
			// front live, so the tombstones behind it pile up until
			// compaction strips them.
			e.ScheduleAfter(time.Hour, func(*Engine) {})
			var err error
			stop, err = e.Every(time.Hour, func(*Engine) {})
			if err != nil {
				t.Fatal(err)
			}
			var drive Handler
			drive = func(en *Engine) {
				rearm(en)
				if fired < cycles {
					en.ScheduleAfter(time.Second, drive)
				}
			}
			e.ScheduleAfter(time.Second, drive)
			if err := e.Run(0); err != nil {
				t.Fatal(err)
			}
			if fired != cycles {
				t.Fatalf("drive fired %d times, want %d", fired, cycles)
			}
			if limit := 2 * compactMinQueue; maxQ > limit {
				t.Fatalf("queue grew to %d under Every+Cancel churn (limit %d)", maxQ, limit)
			}
			if m.laned && (maxLn < compactMinQueue/2 || len(e.queue) != 0) {
				t.Fatalf("lanes peaked at %d entries with %d on the heap: the churn did not pile up in a lane", maxLn, len(e.queue))
			}
			if err := e.checkQueue(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkEngineScheduleFire measures the steady-state cost of one
// closure-free schedule+fire cycle. The CI bench gate tracks it.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfterFunc(time.Microsecond, nopEvent, e, int64(i))
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEveryCancelChurn measures arming, briefly running, and
// stopping a periodic loop — the pattern the pull/heartbeat/audit loops
// produce under failover churn.
func BenchmarkEngineEveryCancelChurn(b *testing.B) {
	e := NewEngine(1)
	n := 0
	tick := func(*Engine) { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stop, err := e.Every(time.Second, tick)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(e.Now() + 10*time.Second); err != nil {
			b.Fatal(err)
		}
		stop()
	}
	if n == 0 {
		b.Fatal("ticker never fired")
	}
}

// holdEvent re-arms itself one period later, the shape of the simulator's
// visit and poll loops; arg is the period.
func holdEvent(e *Engine, _ any, arg int64) {
	e.ScheduleAfterFunc(time.Duration(arg), holdEvent, nil, arg)
}

// BenchmarkEngineHold measures the classic hold model: 16,000 periodic
// events stand in the queue, and one op is one fire plus its re-arm. The
// heap variant sifts every re-arm through a 16,000-entry heap; the lane
// variant declares the period, so the re-arm is a ring append.
func BenchmarkEngineHold(b *testing.B) {
	const standing, period = 16000, 10 * time.Second
	for _, m := range queueModes {
		b.Run(m.name, func(b *testing.B) {
			e := NewEngine(1)
			if m.laned {
				e.Periodic(period)
			}
			for i := 0; i < standing; i++ {
				e.ScheduleAfterFunc(time.Duration(e.Rand().Int63n(int64(period))), holdEvent, nil, int64(period))
			}
			e.SetMaxEvents(uint64(b.N))
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(0); err != ErrEventLimit {
				b.Fatalf("Run = %v, want the event limit", err)
			}
		})
	}
}
