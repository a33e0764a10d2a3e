package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestCellSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for cell := 0; cell < 16; cell++ {
			s := CellSeed(seed, cell)
			if seen[s] {
				t.Fatalf("CellSeed(%d, %d) = %d collides", seed, cell, s)
			}
			seen[s] = true
		}
	}
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded(ShardedConfig{Cells: 0, Lookahead: time.Second}); err == nil {
		t.Error("zero cells accepted")
	}
	if _, err := NewSharded(ShardedConfig{Cells: 2, Lookahead: 0}); err == nil {
		t.Error("zero lookahead accepted")
	}
}

func TestShardedSameCellSendIsDirect(t *testing.T) {
	sh, err := NewSharded(ShardedConfig{Cells: 2, Lookahead: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := sh.Send(1, 1, 10*time.Millisecond, Thunk, func() { ran = true }, 0); err != nil {
		t.Fatal(err)
	}
	if err := sh.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("same-cell send never ran")
	}
}

func TestShardedLookaheadViolation(t *testing.T) {
	sh, err := NewSharded(ShardedConfig{Cells: 2, Lookahead: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c0 := sh.Cell(0)
	if _, err := c0.ScheduleAt(time.Second, func(e *Engine) {
		// Window is [1s, 2s); an arrival at 1.5s claims a cross-cell
		// latency below the configured lookahead.
		sh.Send(0, 1, 1500*time.Millisecond, Thunk, func() {}, 0) //nolint:errcheck // surfaced by Run
	}); err != nil {
		t.Fatal(err)
	}
	err = sh.Run(0)
	if !errors.Is(err, ErrLookaheadViolation) {
		t.Fatalf("Run = %v, want ErrLookaheadViolation", err)
	}
}

func TestShardedEventLimitSurfaces(t *testing.T) {
	sh, err := NewSharded(ShardedConfig{Cells: 2, Lookahead: time.Second, MaxEventsPerCell: 3})
	if err != nil {
		t.Fatal(err)
	}
	var chain Handler
	chain = func(e *Engine) { e.ScheduleAfter(time.Millisecond, chain) }
	sh.Cell(0).ScheduleAfter(time.Millisecond, chain)
	if err := sh.Run(0); !errors.Is(err, ErrEventLimit) {
		t.Fatalf("Run = %v, want ErrEventLimit", err)
	}
}

func TestShardedHorizonClocks(t *testing.T) {
	sh, err := NewSharded(ShardedConfig{Cells: 3, Lookahead: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	atHorizon := false
	// One event exactly at the horizon (must fire, matching Engine.Run) and
	// one beyond it (must stay queued).
	sh.Cell(1).ScheduleAfter(5*time.Second, func(*Engine) { atHorizon = true })
	sh.Cell(2).ScheduleAfter(7*time.Second, func(*Engine) {})
	if err := sh.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !atHorizon {
		t.Error("event at exactly the horizon did not fire")
	}
	for i := 0; i < sh.Cells(); i++ {
		if now := sh.Cell(i).Now(); now != 5*time.Second {
			t.Errorf("cell %d Now = %v, want 5s", i, now)
		}
	}
	if sh.Cell(2).live != 1 {
		t.Errorf("cell 2 live = %d, want 1 (event beyond horizon)", sh.Cell(2).live)
	}
}

func TestShardedMergeOrderSameTimestamp(t *testing.T) {
	// Cross-cell sends from different source cells arriving at the same
	// destination timestamp must run in source-cell order, then per-source
	// send order.
	sh, err := NewSharded(ShardedConfig{Cells: 4, Lookahead: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// The sends are closure-free: the receiver and argument ride the
	// exchange to the destination's handler.
	var got []string
	record := func(_ *Engine, recv any, arg int64) {
		out := recv.(*[]string)
		*out = append(*out, fmt.Sprintf("src%d.%d", arg/10, arg%10))
	}
	arrival := 3 * time.Second
	for _, src := range []int{3, 1, 2} {
		src := src
		sh.Cell(src).ScheduleAfter(time.Second, func(*Engine) {
			for k := 0; k < 2; k++ {
				sh.Send(src, 0, arrival, record, &got, int64(10*src+k)) //nolint:errcheck // surfaced by Run
			}
		})
	}
	if err := sh.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"src1.0", "src1.1", "src2.0", "src2.1", "src3.0", "src3.1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merge order %v, want %v", got, want)
	}
}

// shardedTrace runs a fixed cross-cell ping-pong workload (with per-cell RNG
// draws, so RNG state is part of what must be invariant) to its horizon in
// runs equal chunks, and returns each cell's event trace and the events
// processed.
func shardedTrace(t *testing.T, runs int) ([][]string, uint64) {
	t.Helper()
	const (
		cells     = 4
		lookahead = 100 * time.Millisecond
		horizon   = 20 * time.Second
	)
	sh, err := NewSharded(ShardedConfig{Seed: 42, Cells: cells, Lookahead: lookahead})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([][]string, cells) // each written only by its own cell's handlers
	var loop func(cell, hop int) func()
	loop = func(cell, hop int) func() {
		return func() {
			e := sh.Cell(cell)
			jitter := time.Duration(e.Rand().Int63n(int64(50 * time.Millisecond)))
			traces[cell] = append(traces[cell], fmt.Sprintf("%v hop%d j%v", e.Now(), hop, jitter))
			if hop >= 40 {
				return
			}
			dst := (cell + 1 + hop%3) % cells
			at := e.Now() + lookahead + jitter
			sh.Send(cell, dst, at, Thunk, loop(dst, hop+1), 0) //nolint:errcheck // surfaced by Run
		}
	}
	for c := 0; c < cells; c++ {
		c := c
		sh.Cell(c).ScheduleAfter(time.Duration(c+1)*time.Second, func(*Engine) { loop(c, 0)() })
	}
	step := runChunks(sh, horizon/time.Duration(runs))
	for i := 0; i < runs; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return traces, sh.Processed()
}

func TestShardedRepeatedRunsInvariance(t *testing.T) {
	// Advancing a run in horizon chunks, as the cdn model does between
	// audit sweeps, must fire the same events at the same times with the
	// same RNG draws as one Run to the final horizon.
	base, baseN := shardedTrace(t, 1)
	for _, runs := range []int{4, 10, 200} {
		got, n := shardedTrace(t, runs)
		if n != baseN {
			t.Errorf("runs=%d: processed %d events, want %d", runs, n, baseN)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("runs=%d: traces diverge from the single-Run trace", runs)
		}
	}
}

func TestShardedAdaptiveLookaheadViolation(t *testing.T) {
	// Adaptive bounds must still catch an overstated lookahead: with events
	// at 1s (cell 0) and 1.2s (cell 1), cell 1's boundary is
	// min(1s, 1.2s+1s) + 1s = 2s, so an arrival at 1.5s is a violation.
	sh, err := NewSharded(ShardedConfig{Cells: 2, Lookahead: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sh.Cell(1).ScheduleAfter(1200*time.Millisecond, func(*Engine) {})
	if _, err := sh.Cell(0).ScheduleAt(time.Second, func(e *Engine) {
		sh.Send(0, 1, 1500*time.Millisecond, Thunk, func() {}, 0) //nolint:errcheck // surfaced by Run
	}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Run(0); !errors.Is(err, ErrLookaheadViolation) {
		t.Fatalf("Run = %v, want ErrLookaheadViolation", err)
	}
}

// barrierCount runs a lone self-rescheduling chain in cell 0 (cell 1 stays
// empty) and reports how many window barriers the run needed.
func barrierCount(t *testing.T) int {
	t.Helper()
	sh, err := NewSharded(ShardedConfig{Cells: 2, Lookahead: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var chain Handler
	chain = func(e *Engine) {
		if e.Now() < 9*time.Second {
			e.ScheduleAfter(time.Second, chain)
		}
	}
	sh.Cell(0).ScheduleAfter(time.Second, chain)
	barriers := 0
	sh.SetBarrierHook(func(time.Duration) error { barriers++; return nil })
	if err := sh.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return barriers
}

func TestShardedAdaptiveFusesWindows(t *testing.T) {
	// A static barrier (boundary m+L for every cell) runs one window per
	// event of the chain, nine in all. The lone-cell bound is t+2L, so
	// adaptive windows need about half as many.
	const static = 9
	if adaptive, want := barrierCount(t), static/2+1; adaptive > want {
		t.Errorf("adaptive run used %d barriers, want <= %d (static %d)", adaptive, want, static)
	}
}

func TestShardedBarrierHook(t *testing.T) {
	sh, err := NewSharded(ShardedConfig{Cells: 2, Lookahead: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var chain Handler
	chain = func(e *Engine) {
		if e.Now() < 5*time.Second {
			e.ScheduleAfter(time.Second, chain)
		}
	}
	sh.Cell(0).ScheduleAfter(time.Second, chain)
	var starts []time.Duration
	sh.SetBarrierHook(func(next time.Duration) error {
		starts = append(starts, next)
		return nil
	})
	if err := sh.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(starts) == 0 {
		t.Fatal("barrier hook never ran")
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Errorf("barrier starts not increasing: %v", starts)
		}
	}

	// A hook error aborts the run with that error.
	sh2, err := NewSharded(ShardedConfig{Cells: 2, Lookahead: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sh2.Cell(0).ScheduleAfter(time.Second, func(*Engine) {})
	boom := errors.New("boom")
	sh2.SetBarrierHook(func(time.Duration) error { return boom })
	if err := sh2.Run(0); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want hook error", err)
	}
}

func TestShardedIdleCellClockLags(t *testing.T) {
	// An idle cell is never run: its clock stays put across barriers
	// (the hook observes it lagging) and only the final horizon pass lands it
	// on the horizon.
	sh, err := NewSharded(ShardedConfig{Cells: 2, Lookahead: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var chain Handler
	chain = func(e *Engine) {
		if e.Now() < 8*time.Second {
			e.ScheduleAfter(time.Second, chain)
		}
	}
	sh.Cell(0).ScheduleAfter(time.Second, chain)
	lagged := false
	sh.SetBarrierHook(func(next time.Duration) error {
		if next > 2*time.Second && sh.Cell(1).Now() == 0 {
			lagged = true
		}
		return nil
	})
	if err := sh.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !lagged {
		t.Error("idle cell's clock advanced eagerly; want lazy (skipped) advance")
	}
	if now := sh.Cell(1).Now(); now != 10*time.Second {
		t.Errorf("idle cell Now = %v after Run, want horizon", now)
	}
}

func TestShardedLowestIndexError(t *testing.T) {
	// Cells 1 and 3 both fail in the first window, one with a lookahead
	// violation and one at the event limit. Run must report cell 1's
	// failure whichever kind it is.
	for _, tc := range []struct {
		name            string
		violate, runOut int
		want            error
	}{
		{"violation-first", 1, 3, ErrLookaheadViolation},
		{"limit-first", 3, 1, ErrEventLimit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh, err := NewSharded(ShardedConfig{Cells: 4, Lookahead: time.Second, MaxEventsPerCell: 3})
			if err != nil {
				t.Fatal(err)
			}
			// Every cell holds an event at 1s, so each window boundary is
			// 2s and both failures land in the first window.
			for i := 0; i < sh.Cells(); i++ {
				sh.Cell(i).ScheduleAfter(time.Second, func(*Engine) {})
			}
			src := tc.violate
			sh.Cell(src).ScheduleAfter(time.Second, func(*Engine) {
				sh.Send(src, 0, 1500*time.Millisecond, Thunk, func() {}, 0) //nolint:errcheck // surfaced by Run
			})
			var chain Handler
			chain = func(e *Engine) { e.ScheduleAfter(time.Millisecond, chain) }
			sh.Cell(tc.runOut).ScheduleAfter(time.Second, chain)
			windows := 0
			sh.SetBarrierHook(func(time.Duration) error { windows++; return nil })
			err = sh.Run(0)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Run = %v, want %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), "cell 1:") {
				t.Errorf("Run = %v, want cell 1's error", err)
			}
			if windows != 1 {
				t.Errorf("failures surfaced after %d windows, want 1", windows)
			}
		})
	}
}

func TestShardedProcessedCountsEveryEvent(t *testing.T) {
	// Processed is the sum of the cells' counts and equals the events the
	// handlers saw, both after a Run cut short by a horizon (events stay
	// queued) and after the Run that drains the rest.
	sh, err := NewSharded(ShardedConfig{Cells: 4, Lookahead: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const hops = 200
	var fired uint64
	var chain func(cell, hop int) func()
	chain = func(cell, hop int) func() {
		return func() {
			fired++
			if hop >= hops {
				return
			}
			dst := (cell + 1) % 4
			at := sh.Cell(cell).Now() + 10*time.Millisecond
			sh.Send(cell, dst, at, Thunk, chain(dst, hop+1), 0) //nolint:errcheck // surfaced by Run
		}
	}
	sh.Cell(0).ScheduleAtCall(time.Millisecond, chain(0, 0)) //nolint:errcheck // setup time is never in the past
	check := func(when string) {
		t.Helper()
		var sum uint64
		for i := 0; i < sh.Cells(); i++ {
			sum += sh.Cell(i).Processed()
		}
		if got := sh.Processed(); got != sum || got != fired {
			t.Errorf("%s: Processed = %d, cells sum to %d, handlers fired %d", when, got, sum, fired)
		}
	}
	if err := sh.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	check("after a horizon-cut Run")
	if fired == 0 || fired > hops {
		t.Fatalf("horizon-cut Run fired %d events, want some but not all %d", fired, hops+1)
	}
	if err := sh.Run(0); err != nil {
		t.Fatal(err)
	}
	check("after a full Run")
	if fired != hops+1 {
		t.Errorf("full Run fired %d events, want %d", fired, hops+1)
	}
}
