// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is virtual: a simulation run consumes no wall-clock time beyond the
// CPU needed to execute event handlers. Events scheduled for the same
// timestamp fire in scheduling (FIFO) order, which makes runs with the same
// seed bit-for-bit reproducible.
//
// The event loop is the hot path of every figure in the paper, so the engine
// is built to schedule and fire events without allocating: events are stored
// by value in a manually-managed binary heap (no container/heap interface
// boxing), cancellation is lazy through per-slot generation counters instead
// of a live-event map, and the closure-free scheduling variants
// (ScheduleAtFunc, ScheduleAtCall) let periodic loops run with zero
// allocations per cycle. Delays declared with Periodic get a FIFO lane next
// to the heap: an event scheduled exactly that delay after the current time
// is appended to the lane in O(1) instead of sifted into the heap, which is
// where the simulator's visit and poll re-arms go. So do its poll and fetch
// timeouts: an answered poll's or a completed fetch's timeout is cancelled
// and sits in the server-TTL lane as a tombstone until it reaches the lane's
// front or a compaction drops it, never dispatched or counted. None of this
// changes observable behavior: events fire in exactly the same (timestamp,
// scheduling-order) sequence as the naive implementation, so pooling and
// lanes cannot perturb a deterministic run.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Handler is the callback executed when an event fires. It receives the
// engine so it can schedule follow-up events.
type Handler func(e *Engine)

// FuncHandler is the closure-free handler form: a static function (package
// function or method expression) receiving an explicit receiver and one
// packed integer argument. Scheduling one allocates nothing as long as recv
// is pointer-shaped (a pointer, or a func value for Thunk).
type FuncHandler func(e *Engine, recv any, arg int64)

// heapItem is one heap entry: the ordering key (at, seq) plus the slot
// reference resolving to the event's handler. It deliberately contains no
// pointers, so heap sift operations are barrier-free 24-byte moves.
type heapItem struct {
	at   time.Duration
	seq  uint64
	slot uint32
	gen  uint32
}

// payload holds a scheduled event's handler state, parked in the slot table
// (not the heap) so it is written once at schedule time and read once at
// fire time, never copied by sift operations. Exactly one of h and fn is
// set.
type payload struct {
	h    Handler
	fn   FuncHandler
	recv any
	arg  int64
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now time.Duration
	// queue is a binary min-heap of (at, seq, slot) keys ordered by
	// (at, seq), managed manually so pushes and pops never box events into
	// interfaces. Together with lanes it holds every scheduled event: the
	// next event is the (at, seq) minimum of the heap top and the lane
	// fronts.
	queue []heapItem
	// lanes are the FIFO lanes of the delays declared with Periodic. Each is
	// sorted by (at, seq) as it is built: the clock never decreases and seq
	// always increases, and an append that would break the order goes to
	// the heap instead.
	lanes []lane
	// seq is the single monotonic counter: it orders same-timestamp events
	// FIFO and makes the heap comparator a total order (so the pop sequence
	// is independent of internal heap layout, including after compaction).
	seq uint64
	// slotGen and payloads hold the current generation and handler of every
	// event slot. A Timer packs (slot, generation); firing or cancelling
	// bumps the slot's generation, which simultaneously invalidates the
	// Timer and turns any heap entry still referencing it into a tombstone.
	// Slots are recycled through freeSlots, so steady-state scheduling
	// allocates nothing.
	slotGen   []uint32
	payloads  []payload
	freeSlots []uint32
	// live counts scheduled-but-not-yet-fired-or-cancelled events; dead
	// counts tombstones still sitting in the heap or a lane.
	dead    int
	live    int
	rng     *rand.Rand
	stopped bool

	// peekAt and peekOK cache PeekTime's answer while peekKnown: the
	// sharded barrier peeks every cell each window, and most cells sit idle
	// through most windows. Scheduling keeps the cache current; firing or
	// cancelling an event (retire) drops it.
	peekAt    time.Duration
	peekOK    bool
	peekKnown bool

	// lastAt is the timestamp of the last event actually executed — unlike
	// now, it never moves forward on an empty run to a horizon, so ClampNow
	// can tell a harmless clock overshoot from a rewind across real work.
	lastAt time.Duration

	// processed counts events executed, for diagnostics and loop guards.
	processed uint64
	// maxEvents aborts runaway simulations; 0 means no limit.
	maxEvents uint64

	// tick, when set, runs every tickStride processed events. It exists for
	// the caller's cancellation check, which must not perturb the simulation
	// itself: a tick returning a non-nil error aborts Run with that error,
	// and a tick must never schedule events or draw from the engine's RNG.
	tick func() error
}

// tickStride balances tick latency against per-event overhead: a cancelled
// context is noticed within a few thousand events (microseconds of wall
// time) while the hot loop pays one counter comparison per event.
const tickStride = 4096

// SetTick installs fn to run every tickStride processed events; a non-nil
// error from fn aborts Run with that error. It is the hook for a
// cancellation check: fn must not touch the simulation. A nil fn removes
// the hook.
func (e *Engine) SetTick(fn func() error) {
	e.tick = fn
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. Handlers must use
// this source (never the global one) so runs stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetMaxEvents sets an execution cap; Run returns ErrEventLimit when
// exceeded. A limit of 0 disables the cap.
func (e *Engine) SetMaxEvents(n uint64) { e.maxEvents = n }

// ErrEventLimit is returned by Run when the configured event cap is hit.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// Timer identifies a scheduled event so it can be cancelled. It packs the
// event's slot and the slot's generation at scheduling time; either firing
// or cancelling bumps the generation, so a stale Timer can never cancel the
// slot's next occupant. (A single slot would have to fire 2^32 times for a
// held Timer to alias a later generation — beyond any run the 200M-event cap
// admits.)
type Timer uint64

func makeTimer(slot, gen uint32) Timer {
	return Timer(uint64(slot)<<32 | uint64(gen))
}

// lane is the FIFO of one declared delay, held in a power-of-two ring of
// heap keys, so its memory is bounded by its peak length (a slice with a
// moving head would keep growing by its appends).
type lane struct {
	delay time.Duration
	buf   []heapItem // len is zero or a power of two
	head  int
	n     int
}

// maxLanes caps the declared delays: the loop compares every lane front on
// each pop, so a population with many distinct periods keeps the rest on
// the heap.
const maxLanes = 8

func (l *lane) front() *heapItem { return &l.buf[l.head] }

func (l *lane) tail() *heapItem { return &l.buf[(l.head+l.n-1)&(len(l.buf)-1)] }

func (l *lane) pop() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

func (l *lane) push(it heapItem) {
	if l.n == len(l.buf) {
		buf := make([]heapItem, max(2*len(l.buf), 16))
		k := copy(buf, l.buf[l.head:])
		copy(buf[k:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = it
	l.n++
}

// Periodic declares a FIFO lane for delay d: from now on, an event
// scheduled exactly d after the current time is appended to the lane
// instead of sifted into the heap. Declaring changes no firing order, only
// its cost; it pays off for delays that most events are re-armed with. A
// non-positive or already-declared d is a no-op, as is any declaration
// beyond the first eight (maxLanes).
func (e *Engine) Periodic(d time.Duration) {
	if d <= 0 || len(e.lanes) == maxLanes {
		return
	}
	for i := range e.lanes {
		if e.lanes[i].delay == d {
			return
		}
	}
	e.lanes = append(e.lanes, lane{delay: d})
}

// toLane appends it to the lane of its delay, unless no lane has that delay
// or it would land before the lane's tail (after ClampNow rewound the
// clock); false sends it to the heap.
func (e *Engine) toLane(it heapItem) bool {
	d := it.at - e.now
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.delay == d {
			if l.n > 0 && l.tail().at > it.at {
				return false
			}
			l.push(it)
			return true
		}
	}
	return false
}

// before orders events by (at, seq); seq is unique, so this is a total
// order.
func before(a, b *heapItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// less orders the heap by (at, seq).
func (e *Engine) less(i, j int) bool { return before(&e.queue[i], &e.queue[j]) }

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			return
		}
		e.queue[i], e.queue[parent] = e.queue[parent], e.queue[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.queue)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && e.less(r, l) {
			m = r
		}
		if !e.less(m, i) {
			return
		}
		e.queue[i], e.queue[m] = e.queue[m], e.queue[i]
		i = m
	}
}

// popTop removes queue[0].
func (e *Engine) popTop() {
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue = e.queue[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

// schedule parks p in a recycled slot and inserts its (at, seq, slot) key
// into a lane or the heap. seq 0 takes the next sequence number; any other
// is one from Reserve, and its event goes to the heap (a lane holds its
// events in sequence order as they are appended).
func (e *Engine) schedule(at time.Duration, seq uint64, p payload) (Timer, error) {
	if at < e.now {
		return 0, fmt.Errorf("sim: schedule at %v before now %v", at, e.now)
	}
	next := seq == 0
	if next {
		e.seq++
		seq = e.seq
	}
	var slot uint32
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		slot = uint32(len(e.slotGen))
		// Generations start at 1 so a zero Timer is never valid.
		e.slotGen = append(e.slotGen, 1)
		e.payloads = append(e.payloads, payload{})
	}
	e.payloads[slot] = p
	it := heapItem{at: at, seq: seq, slot: slot, gen: e.slotGen[slot]}
	if !next || len(e.lanes) == 0 || !e.toLane(it) {
		e.queue = append(e.queue, it)
		e.siftUp(len(e.queue) - 1)
	}
	if e.peekKnown && (!e.peekOK || at < e.peekAt) {
		e.peekAt, e.peekOK = at, true
	}
	e.live++
	return makeTimer(slot, e.slotGen[slot]), nil
}

// retire invalidates a fired or cancelled event's slot, releases its
// payload's references, and recycles the slot.
func (e *Engine) retire(slot uint32) {
	e.slotGen[slot]++
	e.payloads[slot] = payload{}
	e.peekKnown = false
	e.freeSlots = append(e.freeSlots, slot)
	e.live--
}

// ScheduleAt schedules h to run at absolute virtual time at. Scheduling in
// the past (before Now) is an error that would break causality.
func (e *Engine) ScheduleAt(at time.Duration, h Handler) (Timer, error) {
	return e.schedule(at, 0, payload{h: h})
}

// ScheduleAfter schedules h to run d after the current virtual time.
// A negative d is clamped to zero.
func (e *Engine) ScheduleAfter(d time.Duration, h Handler) Timer {
	if d < 0 {
		d = 0
	}
	t, _ := e.ScheduleAt(e.now+d, h) // never in the past by construction
	return t
}

// ScheduleAtFunc schedules fn(e, recv, arg) at absolute virtual time at.
// It is the zero-allocation variant of ScheduleAt: fn is a static function
// (or method expression), recv carries the state a closure would capture,
// and arg packs any small integers the handler needs. When recv is a pointer
// the call allocates nothing.
func (e *Engine) ScheduleAtFunc(at time.Duration, fn FuncHandler, recv any, arg int64) (Timer, error) {
	return e.schedule(at, 0, payload{fn: fn, recv: recv, arg: arg})
}

// Reserve takes the next n sequence numbers and returns the first. An event
// scheduled later with ScheduleAtFuncSeq and one of them fires, among the
// events at its time, where it would have fired had it been scheduled at
// the reservation: a model that arms an event later than the moment it
// logically scheduled it keeps its place.
func (e *Engine) Reserve(n int) uint64 {
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// ScheduleAtFuncSeq is ScheduleAtFunc with seq, a sequence number from
// Reserve, in place of the next one. Each reserved number must be scheduled
// at most once at a time, so that the (time, seq) order stays total.
func (e *Engine) ScheduleAtFuncSeq(at time.Duration, seq uint64, fn FuncHandler, recv any, arg int64) (Timer, error) {
	return e.schedule(at, seq, payload{fn: fn, recv: recv, arg: arg})
}

// ScheduleAfterFunc schedules fn(e, recv, arg) to run d after the current
// virtual time; a negative d is clamped to zero. See ScheduleAtFunc.
func (e *Engine) ScheduleAfterFunc(d time.Duration, fn FuncHandler, recv any, arg int64) Timer {
	if d < 0 {
		d = 0
	}
	t, _ := e.ScheduleAtFunc(e.now+d, fn, recv, arg) // never in the past
	return t
}

// Thunk is the FuncHandler that runs a plain func() passed as its receiver:
// how a closure takes a closure-free path (ScheduleAtCall, Sharded.Send).
// Func values are pointer-shaped, so storing one in recv does not allocate.
func Thunk(_ *Engine, recv any, _ int64) { recv.(func())() }

// ScheduleAtCall schedules f() at absolute virtual time at, without the
// wrapper-closure allocation ScheduleAt(at, func(*Engine){ f() }) would pay.
// f itself may of course be a closure; only the engine side is free.
func (e *Engine) ScheduleAtCall(at time.Duration, f func()) (Timer, error) {
	return e.schedule(at, 0, payload{fn: Thunk, recv: f})
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op and reports false.
// The cancelled event stays in the heap or its lane as a tombstone and is
// skipped (or compacted away) lazily, so Cancel is O(1).
func (e *Engine) Cancel(t Timer) bool {
	slot := uint32(uint64(t) >> 32)
	gen := uint32(uint64(t))
	if int(slot) >= len(e.slotGen) || e.slotGen[slot] != gen {
		return false
	}
	e.retire(slot)
	e.dead++
	e.maybeCompact()
	return true
}

// compactMinQueue is the heap size below which compaction is never worth it.
const compactMinQueue = 64

// maybeCompact rebuilds the heap and the lanes without their tombstones
// once they make up more than half of all entries, so unbounded
// cancel/reschedule churn (a long-horizon Every loop being cancelled and
// re-armed repeatedly) cannot grow memory without bound. The comparator is
// a total order and a lane keeps its order, so rebuilding cannot change the
// pop sequence.
func (e *Engine) maybeCompact() {
	if n := e.queueLen(); n < compactMinQueue || e.dead*2 <= n {
		return
	}
	kept := e.queue[:0]
	for _, it := range e.queue {
		if e.slotGen[it.slot] == it.gen {
			kept = append(kept, it)
		}
	}
	e.queue = kept
	for i := len(e.queue)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		mask := len(l.buf) - 1
		k := 0
		for j := 0; j < l.n; j++ {
			if it := l.buf[(l.head+j)&mask]; e.slotGen[it.slot] == it.gen {
				l.buf[(l.head+k)&mask] = it
				k++
			}
		}
		l.n = k
	}
	e.dead = 0
}

// Stop makes the current Run return after the current handler completes.
// Calling Stop before Run makes that Run return immediately, before
// processing any event — a cancellation that races engine start is never
// lost. Each Run (or RunUntil) consumes the pending stop on return, so a
// stopped engine can be resumed by calling Run again.
func (e *Engine) Stop() { e.stopped = true }

// queueLen reports the physical size of the heap and the lanes including
// tombstones; it sizes compaction, and tests use it to assert that cancel
// churn stays bounded.
func (e *Engine) queueLen() int {
	n := len(e.queue)
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// front returns the earliest live event and where it sits (-1 for the heap,
// else its lane's index), or nil when no live events remain. A cancellation
// tombstone is discarded only once it is the earliest entry, so a pop reads
// one slot generation, not one per lane.
func (e *Engine) front() (*heapItem, int) {
	for {
		var top *heapItem
		src := -1
		if len(e.queue) > 0 {
			top = &e.queue[0]
		}
		for i := range e.lanes {
			if l := &e.lanes[i]; l.n > 0 {
				if f := l.front(); top == nil || before(f, top) {
					top, src = f, i
				}
			}
		}
		if top == nil || e.slotGen[top.slot] == top.gen {
			return top, src
		}
		if src < 0 {
			e.popTop()
		} else {
			e.lanes[src].pop()
		}
		e.dead--
	}
}

// PeekTime reports the timestamp of the earliest live scheduled event. ok
// is false when no live events remain. The windowed (sharded) executor uses
// it to pick the next synchronization window's start.
func (e *Engine) PeekTime() (at time.Duration, ok bool) {
	if !e.peekKnown {
		e.peekAt, e.peekOK = 0, false
		if top, _ := e.front(); top != nil {
			e.peekAt, e.peekOK = top.at, true
		}
		e.peekKnown = true
	}
	return e.peekAt, e.peekOK
}

// ClampNow lowers the engine's clock to t after a run overshot it. It exists
// for windowed executors whose final window boundary may exceed the requested
// horizon (the sharded engine's horizon+1ns clamp): after such a run the
// clock reads past the horizon even though no event beyond it executed, and
// ClampNow pulls it back so every cell reports the same end time.
//
// A t at or after the current clock is a no-op. A t before the last executed
// event's timestamp is an error: rewinding across real work would fabricate
// an inconsistent timeline.
func (e *Engine) ClampNow(t time.Duration) error {
	if t >= e.now {
		return nil
	}
	if t < e.lastAt {
		return fmt.Errorf("sim: ClampNow(%v) before last executed event at %v", t, e.lastAt)
	}
	e.now = t
	return nil
}

// Run executes events in timestamp order until the queue drains, the horizon
// is passed, Stop is called, or the event cap is hit. A horizon of 0 means
// run until the queue is empty. Events scheduled exactly at the horizon
// still fire; later ones remain queued.
//
// When the event cap is hit, Run returns ErrEventLimit before consuming the
// limiting event: Processed() equals the cap, Now() is the timestamp of the
// last event that actually ran, and the unrun event is still Pending — the
// post-mortem state is consistent.
func (e *Engine) Run(horizon time.Duration) error {
	return e.run(horizon, runInclusive)
}

// RunUntil executes events with timestamps strictly before end, then
// advances the clock to end. It is the window-execution primitive of the
// sharded engine: a conservative synchronizer runs each shard up to the
// window boundary, exchanges cross-shard events, and repeats. Stop, tick,
// and the event cap behave exactly as in Run.
func (e *Engine) RunUntil(end time.Duration) error {
	if end < e.now {
		return fmt.Errorf("sim: RunUntil(%v) before now %v", end, e.now)
	}
	return e.run(end, runExclusive)
}

// run bounds for the shared event loop: Run fires events at the limit
// (horizon inclusive, 0 = none), RunUntil stops strictly before it.
type runBound int

const (
	runInclusive runBound = iota
	runExclusive
)

func (e *Engine) run(limit time.Duration, bound runBound) error {
	// A pre-armed Stop (called before Run) halts immediately; any stop is
	// consumed when the run returns so a later Run can resume.
	defer func() { e.stopped = false }()
	for !e.stopped {
		var top *heapItem
		src := -1
		if len(e.lanes) == 0 {
			// Heap-only engine: the loop it always had.
			if len(e.queue) == 0 {
				break
			}
			top = &e.queue[0]
			if e.slotGen[top.slot] != top.gen {
				// Tombstone of a cancelled event: discard and move on.
				e.popTop()
				e.dead--
				continue
			}
		} else if top, src = e.front(); top == nil {
			break
		}
		if bound == runInclusive {
			if limit > 0 && top.at > limit {
				// Advance the clock to the horizon so callers observe a
				// consistent end time.
				e.now = limit
				return nil
			}
		} else if top.at >= limit {
			break
		}
		if e.maxEvents > 0 && e.processed >= e.maxEvents {
			// Cap check before the event is consumed: the limiting event
			// stays queued and the clock stays at the last-run event.
			return ErrEventLimit
		}
		it := *top // copy out: the handler may grow or reorder the heap
		p := e.payloads[it.slot]
		if src < 0 {
			e.popTop()
		} else {
			e.lanes[src].pop()
		}
		e.retire(it.slot)
		e.now = it.at
		e.lastAt = it.at
		e.processed++
		if e.tick != nil && e.processed%tickStride == 0 {
			if err := e.tick(); err != nil {
				return err
			}
		}
		if p.h != nil {
			p.h(e)
		} else {
			p.fn(e, p.recv, p.arg)
		}
	}
	if limit > 0 && e.now < limit {
		e.now = limit
	}
	return nil
}

// Every schedules h to run now+d, then every d thereafter, until the
// returned stop function is called. The period must be positive. The loop
// re-arms through the engine's recycled event storage, so a long-running
// periodic loop allocates only its one closure up front.
func (e *Engine) Every(d time.Duration, h Handler) (stop func(), err error) {
	if d <= 0 {
		return nil, fmt.Errorf("sim: non-positive period %v", d)
	}
	var (
		cancelled bool
		cur       Timer
	)
	var tick Handler
	tick = func(en *Engine) {
		if cancelled {
			return
		}
		h(en)
		if cancelled {
			return
		}
		cur = en.ScheduleAfter(d, tick)
	}
	cur = e.ScheduleAfter(d, tick)
	return func() {
		cancelled = true
		e.Cancel(cur)
	}, nil
}
