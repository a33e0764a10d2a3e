// Conservative parallel execution: a Sharded engine runs several independent
// Engines ("cells"), one per topology partition, under a time-window barrier.
//
// The synchronizer is the classic conservative (CMB-style) scheme specialized
// to a static lookahead: every cross-cell interaction has a known minimum
// latency L, computed by the model at partition time, so an event executing
// at or after time m can only schedule work in another cell at or after m+L.
// (The cdn model takes L from the traffic that can cross cells: the minimum
// network propagation delay from the provider, the only node that talks to
// more than one cell, to a node outside the provider's cell.) Each round
// computes a per-cell window boundary from the cells' pending event times,
// runs every cell that has work inside its boundary, and only then exchanges
// the cross-cell sends buffered during the window.
//
// Three properties keep the barrier cheap without giving up determinism:
//
//   - Idle-cell skipping: a cell whose next event lies at or beyond its
//     boundary is not run at all — its clock lags and is advanced lazily
//     (deliveries carry their own timestamps; the final horizon pass
//     catches the clock up), so a sparse window costs O(active cells).
//
//   - Adaptive windowing: the boundary for cell j is the tightest bound
//     derivable from the pending event times alone,
//     B_j = min(min_{k≠j} t_k, t_j+L) + L, which fuses up to two static
//     windows into one when the earliest cell runs ahead of the rest. The
//     bound is a pure function of the per-cell event streams observed at
//     the barrier.
//
//   - Sort-free, zero-alloc barriers: the exchange delivers the outboxes in
//     source order; the engine's (at, seq) does the rest. A send carries
//     the closure-free event form (handler, receiver, packed argument)
//     into its outbox and on to ScheduleAtFunc, so the exchange builds no
//     closure; a closure caller passes it through Thunk. The outboxes,
//     active list and per-cell bound slices persist across windows.
//
// One goroutine, the caller of Run, runs every window: the active cells in
// index order, then the barrier. Under the cdn model's lookahead (about
// 23 ms for 850 servers in 8 cells) most windows run 8–63 events, less work
// than handing cells to other goroutines would cost. Cells still never
// touch each other's state mid-window (each owns its heap, its RNG, and its
// outbox), and the buffered cross-cell sends fire as a (timestamp, source
// cell, per-source sequence) merge would, so results are a pure function
// of (seed, partition).
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ShardedConfig configures a Sharded engine.
type ShardedConfig struct {
	// Seed is the base seed; each cell's RNG is seeded with
	// CellSeed(Seed, cell) so cells draw independent, reproducible streams.
	Seed int64
	// Cells is the number of partition cells (independent event heaps).
	// The partition is part of the simulation's identity: changing Cells
	// changes results.
	Cells int
	// Lookahead is the conservative window length: the minimum virtual-time
	// latency of any cross-cell interaction. Must be positive. A cross-cell
	// send scheduled to arrive sooner than the destination cell's current
	// window boundary is a lookahead violation and aborts the run.
	Lookahead time.Duration
	// MaxEventsPerCell caps each cell's executed events (0 = no cap).
	MaxEventsPerCell uint64
}

// ErrLookaheadViolation reports a cross-cell send scheduled to arrive before
// the destination cell's window boundary — the model's minimum cross-cell
// latency (the configured Lookahead) was overstated.
var ErrLookaheadViolation = errors.New("sim: cross-cell send inside the conservative window")

// crossEvent is one buffered cross-cell send: fn(e, recv, arg) at at in
// cell dst.
type crossEvent struct {
	at   time.Duration
	dst  int
	fn   FuncHandler
	recv any
	arg  int64
}

// infTime marks "no pending event" in the per-cell peek table.
const infTime = time.Duration(math.MaxInt64)

// Sharded executes a fixed partition of cells under a conservative
// time-window barrier. Construct with NewSharded, populate the cells (during
// setup, or from events running inside them), then call Run — once, or
// repeatedly with increasing horizons to advance the run in chunks.
type Sharded struct {
	cells     []*Engine
	lookahead time.Duration

	// Per-source-cell outboxes, each in send order, and each source cell's
	// first lookahead violation.
	outbox  [][]crossEvent
	sendErr []error

	// Persistent per-window scratch: peek holds each cell's next event time
	// (infTime when empty), cellEnd each cell's window boundary (read by
	// Send for lookahead validation), active the indices of cells run this
	// window.
	peek    []time.Duration
	cellEnd []time.Duration
	active  []int

	// hook, when set, runs at every window barrier (see SetBarrierHook).
	hook func(next time.Duration) error
}

// CellSeed derives cell's deterministic RNG seed from the base seed
// (splitmix64 over the pair, so nearby seeds and cell indices decorrelate).
func CellSeed(seed int64, cell int) int64 {
	z := uint64(seed) + uint64(cell+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewSharded builds a Sharded engine with cfg.Cells fresh cells.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	if cfg.Cells < 1 {
		return nil, fmt.Errorf("sim: sharded engine needs >= 1 cell, got %d", cfg.Cells)
	}
	if cfg.Lookahead <= 0 {
		return nil, fmt.Errorf("sim: non-positive lookahead %v", cfg.Lookahead)
	}
	sh := &Sharded{
		cells:     make([]*Engine, cfg.Cells),
		lookahead: cfg.Lookahead,
		outbox:    make([][]crossEvent, cfg.Cells),
		sendErr:   make([]error, cfg.Cells),
		peek:      make([]time.Duration, cfg.Cells),
		cellEnd:   make([]time.Duration, cfg.Cells),
		active:    make([]int, 0, cfg.Cells),
	}
	for i := range sh.cells {
		sh.cells[i] = NewEngine(CellSeed(cfg.Seed, i))
		sh.cells[i].SetMaxEvents(cfg.MaxEventsPerCell)
	}
	return sh, nil
}

// Cell returns cell i's engine, for setup-time scheduling and for handlers
// running inside that cell. Scheduling on another cell's engine from a
// running handler is a data race; cross-cell work must go through Send.
func (sh *Sharded) Cell(i int) *Engine { return sh.cells[i] }

// Cells reports the number of partition cells.
func (sh *Sharded) Cells() int { return len(sh.cells) }

// Lookahead reports the conservative window length.
func (sh *Sharded) Lookahead() time.Duration { return sh.lookahead }

// Processed reports the events executed so far across all cells.
func (sh *Sharded) Processed() uint64 {
	var n uint64
	for _, c := range sh.cells {
		n += c.Processed()
	}
	return n
}

// SetBarrierHook installs fn to run at every window barrier: after the
// previous window's buffered sends have been delivered and before the next
// window's cells run. next is the upcoming window's start — the globally
// earliest pending event time, up to which all simulation state is final.
// The hook runs between windows, while no cell is running, so it may read
// cell state freely, but it must not schedule events, draw from cell RNGs,
// or otherwise mutate cells. A non-nil error aborts Run with that error. A
// nil fn removes the hook.
func (sh *Sharded) SetBarrierHook(fn func(next time.Duration) error) { sh.hook = fn }

// Send schedules fn(e, recv, arg) to run in cell dst at absolute virtual
// time at, as ScheduleAtFunc does; a closure f goes as (Thunk, f, 0). It
// must be called from a handler running in cell src (or from setup before
// Run).
// A same-cell send schedules directly; a cross-cell send is buffered in
// src's outbox and delivered at the next window barrier, so at must not
// precede the destination cell's window boundary — that would mean the
// configured lookahead overstated the model's minimum cross-cell latency.
// The violation is returned and also aborts Run when src's window ends, so
// fire-and-forget callers are still safe.
func (sh *Sharded) Send(src, dst int, at time.Duration, fn FuncHandler, recv any, arg int64) error {
	if src == dst {
		_, err := sh.cells[dst].ScheduleAtFunc(at, fn, recv, arg)
		return err
	}
	if at < sh.cellEnd[dst] {
		err := fmt.Errorf("%w: cell %d -> %d at %v, cell %d's window ends %v",
			ErrLookaheadViolation, src, dst, at, dst, sh.cellEnd[dst])
		if sh.sendErr[src] == nil {
			sh.sendErr[src] = err
		}
		return err
	}
	sh.outbox[src] = append(sh.outbox[src], crossEvent{at: at, dst: dst, fn: fn, recv: recv, arg: arg})
	return nil
}

// flush delivers the buffered cross-cell sends: the outboxes in source-cell
// order, each in send order, straight into the destination engines. The
// engine's (at, seq) order does the rest. One flush's inserts into a
// destination take a contiguous block of its seq values, so only sends with
// equal timestamps depend on insertion order, and for those the source
// order gives exactly (source cell, per-source sequence): the same firing
// order as a global (at, src, seq) merge. Runs only between windows. The
// outboxes keep their spines, so a steady-state flush allocates nothing.
func (sh *Sharded) flush() error {
	for i, box := range sh.outbox {
		for _, ev := range box {
			if _, err := sh.cells[ev.dst].ScheduleAtFunc(ev.at, ev.fn, ev.recv, ev.arg); err != nil {
				return err
			}
		}
		clear(box) // release the receivers; the spine is reused next window
		sh.outbox[i] = box[:0]
	}
	return nil
}

// planWindow computes the next window from the cells' pending event times:
// it fills peek, cellEnd, and active, and returns the window's start (the
// globally earliest pending event). ok is false when no cell holds an event
// at or before the horizon, i.e. the run is complete.
//
// The static boundary m+L, where m is the window start and L the lookahead,
// holds for every cell: an event executing at u >= m can only produce a
// cross-cell arrival at u+L >= m+L. The boundary for cell j is the tightest
// bound derivable from the peeks alone, never earlier than the static one,
//
//	B_j = min( min_{k!=j} t_k, t_j + L ) + L
//
// — the earliest possible arrival into j is either a direct send from the
// earliest other cell (t_k + L) or an echo of j's own earliest send routed
// back through a neighbor (t_j + 2L). Every cell that can execute an event
// strictly before its boundary is active; the rest are skipped and their
// clocks lag until a later window (or the final horizon pass) advances them.
func (sh *Sharded) planWindow(horizon time.Duration) (start time.Duration, ok bool) {
	m, m2 := infTime, infTime
	mIdx := -1
	for i, c := range sh.cells {
		t, tok := c.PeekTime()
		if !tok {
			sh.peek[i] = infTime
			continue
		}
		sh.peek[i] = t
		if t < m {
			m2 = m
			m, mIdx = t, i
		} else if t < m2 {
			m2 = t
		}
	}
	if mIdx < 0 || (horizon > 0 && m > horizon) {
		return 0, false
	}
	base := m + sh.lookahead
	if horizon > 0 && base > horizon {
		base = horizon + 1
	}
	sh.active = sh.active[:0]
	for i := range sh.cells {
		end := base
		// min over the other cells' peeks: m unless i is the argmin.
		other := m
		if i == mIdx {
			other = m2
		}
		if sh.peek[i] < infTime {
			if own := sh.peek[i] + sh.lookahead; own < other {
				other = own
			}
		}
		if other > m { // strictly later than the static bound's base
			end = other + sh.lookahead
			if horizon > 0 && end > horizon {
				end = horizon + 1
			}
		}
		sh.cellEnd[i] = end
		if sh.peek[i] < end {
			sh.active = append(sh.active, i)
		}
	}
	return m, true
}

// runWindow runs every active cell up to its boundary, in index order, and
// returns the first failure by cell index: a cell's RunUntil error, or a
// lookahead violation one of its handlers buffered. A cell's handlers run
// only while it runs, so a later cell cannot fail an earlier one.
func (sh *Sharded) runWindow() error {
	for _, i := range sh.active {
		err := sh.cells[i].RunUntil(sh.cellEnd[i])
		if err == nil {
			err = sh.sendErr[i]
		}
		if err != nil {
			return fmt.Errorf("sim: cell %d: %w", i, err)
		}
	}
	return nil
}

// Run executes all cells to completion (or to the horizon, inclusive, when
// horizon > 0), window by window. On return every cell's clock is at the
// horizon (when one is set) or at its last event. Run reports the first
// error by cell index.
func (sh *Sharded) Run(horizon time.Duration) error {
	for {
		if err := sh.flush(); err != nil {
			return err
		}
		start, ok := sh.planWindow(horizon)
		if !ok {
			break
		}
		if sh.hook != nil {
			if err := sh.hook(start); err != nil {
				return err
			}
		}
		if err := sh.runWindow(); err != nil {
			return err
		}
	}
	if err := sh.flush(); err != nil { // nothing pending unless the horizon cut the run short
		return err
	}
	if horizon > 0 {
		for _, c := range sh.cells {
			if c.Now() < horizon {
				// An idle-skipped (or simply drained) cell lags; replay its
				// empty tail so the clock lands exactly on the horizon.
				if err := c.Run(horizon); err != nil {
					return err
				}
			} else if err := c.ClampNow(horizon); err != nil {
				// The final window's +1ns clamp overshot; timestamps are
				// integral, so no event sits between horizon and now.
				return err
			}
		}
	}
	return nil
}
