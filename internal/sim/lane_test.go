package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The order oracle interprets one op sequence on two engines, one with
// FIFO lanes declared and one heap-only, and requires them to be
// indistinguishable: the same fired (id, time) sequence and the same
// Processed, Now and PeekTime after every run call (and on a bare peek).

// oracleDelays are the delays ops pick from; the first two are declared as
// lanes on the laned engine.
var oracleDelays = [...]time.Duration{10, 60, 0, 1, 7, 25}

type firedEvent struct {
	id int64
	at time.Duration
}

// oracleHarness is one engine under the oracle plus what its ops created.
type oracleHarness struct {
	e      *Engine
	laned  bool
	fired  []firedEvent
	timers []Timer
	stops  []func()
	nextID int64
}

func newOracleHarness(laned bool) *oracleHarness {
	h := &oracleHarness{e: NewEngine(1), laned: laned}
	// Every loops never drain; the cap bounds a run (and is itself part of
	// the compared behaviour).
	h.e.SetMaxEvents(20000)
	if laned {
		h.e.Periodic(oracleDelays[0])
		h.e.Periodic(oracleDelays[1])
	}
	return h
}

func (h *oracleHarness) log(id int64) func(*Engine) {
	return func(en *Engine) { h.fired = append(h.fired, firedEvent{id, en.Now()}) }
}

// oracleFire logs its event and, while arg's re-arm budget lasts, schedules
// itself again after the same delay: arg packs id<<8 | rearms<<4 | delay.
func oracleFire(en *Engine, recv any, arg int64) {
	h := recv.(*oracleHarness)
	h.fired = append(h.fired, firedEvent{arg >> 8, en.Now()})
	if rearms := arg >> 4 & 0xf; rearms > 0 {
		d := oracleDelays[arg&0xf]
		h.timers = append(h.timers, en.ScheduleAfterFunc(d, oracleFire, h, arg-1<<4))
	}
}

// apply runs one op on h and reports whether the oracle compares the
// engines after it: after every run call, and after a bare peek.
func (h *oracleHarness) apply(op, x, y byte) (compare bool, err error) {
	e := h.e
	d := oracleDelays[int(x)%len(oracleDelays)]
	id := h.nextID
	switch op % 12 {
	case 0:
		tm, err := e.ScheduleAt(e.Now()+d, h.log(id))
		if err != nil {
			panic(err) // at >= now by construction
		}
		h.timers = append(h.timers, tm)
	case 1:
		h.timers = append(h.timers, e.ScheduleAfter(d, h.log(id)))
	case 2:
		arg := id<<8 | int64(y%4)<<4 | int64(int(x)%len(oracleDelays))
		h.timers = append(h.timers, e.ScheduleAfterFunc(d, oracleFire, h, arg))
	case 3:
		if len(h.timers) > 0 {
			e.Cancel(h.timers[int(x)%len(h.timers)])
		}
	case 4:
		if d <= 0 {
			d = oracleDelays[0]
		}
		stop, err := e.Every(d, h.log(id))
		if err != nil {
			panic(err)
		}
		h.stops = append(h.stops, stop)
	case 5:
		if len(h.stops) > 0 {
			h.stops[int(x)%len(h.stops)]()
		}
	case 6:
		return true, e.RunUntil(e.Now() + time.Duration(x%64))
	case 7:
		return true, e.Run(e.Now() + 1 + time.Duration(x%64))
	case 8:
		// An event that stops the run it fires in; the next run resumes.
		h.timers = append(h.timers, e.ScheduleAfter(d, func(en *Engine) {
			h.log(id)(en)
			en.Stop()
		}))
	case 9:
		// A rewind past the last fired event is refused; both engines
		// share Now and the fired sequence, so they refuse alike.
		_ = e.ClampNow(e.Now() - time.Duration(x%32))
	case 10:
		if h.laned {
			e.Periodic(d)
		}
	case 11:
		// A peek between runs: the cached PeekTime must have followed the
		// schedules and cancels since the last one.
		return true, nil
	}
	h.nextID++
	return false, nil
}

// runOracle interprets ops (three bytes per op) on a laned and a heap-only
// engine, failing at the first divergence.
func runOracle(t *testing.T, ops []byte) {
	t.Helper()
	a, b := newOracleHarness(true), newOracleHarness(false)
	check := func(step int, errA, errB error) {
		t.Helper()
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("op %d: run error %v (lanes) vs %v (heap)", step, errA, errB)
		}
		if !reflect.DeepEqual(a.fired, b.fired) {
			t.Fatalf("op %d: fired sequences diverge:\n lanes %v\n heap  %v", step, a.fired, b.fired)
		}
		if a.e.Processed() != b.e.Processed() || a.e.Now() != b.e.Now() {
			t.Fatalf("op %d: Processed/Now %d/%v (lanes) vs %d/%v (heap)",
				step, a.e.Processed(), a.e.Now(), b.e.Processed(), b.e.Now())
		}
		for _, h := range []*oracleHarness{a, b} {
			if err := h.e.checkQueue(); err != nil {
				t.Fatalf("op %d (lanes %v): %v", step, h.laned, err)
			}
		}
		ta, oka := a.e.PeekTime()
		tb, okb := b.e.PeekTime()
		if ta != tb || oka != okb {
			t.Fatalf("op %d: PeekTime %v,%v (lanes) vs %v,%v (heap)", step, ta, oka, tb, okb)
		}
	}
	for i := 0; i+2 < len(ops); i += 3 {
		cmpA, errA := a.apply(ops[i], ops[i+1], ops[i+2])
		cmpB, errB := b.apply(ops[i], ops[i+1], ops[i+2])
		if cmpA != cmpB {
			t.Fatalf("op %d: interpreters diverged", i/3)
		}
		if cmpA {
			check(i/3, errA, errB)
		}
	}
	errA := a.e.Run(a.e.Now() + 1000)
	errB := b.e.Run(b.e.Now() + 1000)
	check(len(ops)/3, errA, errB)
}

// checkQueue recounts the live events and tombstones in the heap and the
// lanes against the engine's live and dead counters, and recomputes a cached
// PeekTime.
func (e *Engine) checkQueue() error {
	live, dead := 0, 0
	count := func(it heapItem) {
		if e.slotGen[it.slot] == it.gen {
			live++
		} else {
			dead++
		}
	}
	for _, it := range e.queue {
		count(it)
	}
	for _, l := range e.lanes {
		for j := 0; j < l.n; j++ {
			count(l.buf[(l.head+j)&(len(l.buf)-1)])
		}
	}
	if live != e.live || dead != e.dead {
		return fmt.Errorf("queue holds %d live and %d dead events, counters say %d and %d", live, dead, e.live, e.dead)
	}
	if e.peekKnown {
		var at time.Duration
		top, _ := e.front()
		if top != nil {
			at = top.at
		}
		if e.peekAt != at || e.peekOK != (top != nil) {
			return fmt.Errorf("cached PeekTime %v,%v, queue front %v,%v", e.peekAt, e.peekOK, at, top != nil)
		}
	}
	return nil
}

// TestEngineOrderOracle runs the order oracle over seeded random op
// sequences.
func TestEngineOrderOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*(50+rng.Intn(250)))
		rng.Read(ops)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runOracle(t, ops) })
	}
}

// FuzzEngineOrder runs the order oracle on arbitrary op sequences.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{2, 0, 3, 2, 1, 2, 7, 40, 0, 3, 0, 0, 7, 63, 0})
	f.Add([]byte{1, 0, 0, 6, 50, 0, 9, 20, 0, 1, 0, 0, 7, 63, 0})
	f.Add([]byte{4, 0, 0, 4, 1, 0, 7, 63, 0, 5, 0, 0, 8, 0, 0, 7, 63, 0, 7, 63, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3000 {
			ops = ops[:3000]
		}
		runOracle(t, ops)
	})
}

// TestLaneOutOfOrderFallsBackToHeap forces an append that would break a
// lane's order: after ClampNow rewinds the clock, now+d lands before the
// lane's tail, so the event must take the heap and still fire first.
func TestLaneOutOfOrderFallsBackToHeap(t *testing.T) {
	e := NewEngine(1)
	e.Periodic(10)
	var got []time.Duration
	rec := func(en *Engine) { got = append(got, en.Now()) }
	if _, err := e.ScheduleAt(100, rec); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	e.ScheduleAfter(10, rec) // at 60: the lane's tail
	if err := e.ClampNow(20); err != nil {
		t.Fatal(err)
	}
	e.ScheduleAfter(10, rec) // at 30 < 60: must go to the heap
	if n := e.lanes[0].n; n != 1 {
		t.Fatalf("lane holds %d events, want 1 (the out-of-order append must take the heap)", n)
	}
	if len(e.queue) != 2 {
		t.Fatalf("heap holds %d events, want 2", len(e.queue))
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{30, 60, 100}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	runOracle(t, []byte{
		1, 0, 0, // ScheduleAfter(10): lane
		6, 50, 0, // RunUntil(50): fires the event at 10
		1, 0, 0, // at 60: lane
		9, 25, 0, // ClampNow(25)
		1, 0, 0, // at 35 < 60: heap on the laned engine
		7, 63, 0, // Run
	})
}

// TestPeriodicDeclarations pins Periodic's no-op cases: non-positive and
// repeated delays, and declarations past maxLanes.
func TestPeriodicDeclarations(t *testing.T) {
	e := NewEngine(1)
	e.Periodic(0)
	e.Periodic(-time.Second)
	for i := 0; i < 2*maxLanes; i++ {
		e.Periodic(time.Duration(1 + i%(maxLanes+2)))
	}
	if len(e.lanes) != maxLanes {
		t.Fatalf("%d lanes declared, want %d", len(e.lanes), maxLanes)
	}
	for i, l := range e.lanes {
		if l.delay != time.Duration(1+i) {
			t.Fatalf("lane %d has delay %v, want %v", i, l.delay, time.Duration(1+i))
		}
	}
}
