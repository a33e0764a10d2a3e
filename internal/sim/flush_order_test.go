package sim

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"
)

// The flush-order oracle runs one cross-cell workload twice: through Run,
// whose barrier delivers the outboxes in source-cell order, and through a
// reference loop whose barrier merges every buffered send into one
// (at, source cell, per-source sequence) order first, as the engine once
// did. Both must fire the same events at the same times in every cell and
// process the same number of events.

// sortedFlush is the reference barrier exchange: all outboxes merged and
// sorted by (at, src, seq), then delivered in that order.
func sortedFlush(sh *Sharded) error {
	type keyed struct {
		ev       crossEvent
		src, seq int
	}
	var all []keyed
	for src, box := range sh.outbox {
		for seq, ev := range box {
			all = append(all, keyed{ev, src, seq})
		}
		sh.outbox[src] = box[:0]
	}
	slices.SortFunc(all, func(a, b keyed) int {
		if c := cmp.Compare(a.ev.at, b.ev.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, k := range all {
		if _, err := sh.cells[k.ev.dst].ScheduleAtFunc(k.ev.at, k.ev.fn, k.ev.recv, k.ev.arg); err != nil {
			return err
		}
	}
	return nil
}

// runSorted is Run to completion with sortedFlush at every barrier.
func runSorted(sh *Sharded) error {
	for {
		if err := sortedFlush(sh); err != nil {
			return err
		}
		if _, ok := sh.planWindow(0); !ok {
			return nil
		}
		if err := sh.runWindow(); err != nil {
			return err
		}
	}
}

const (
	flushLookahead = 10
	flushMaxDepth  = 3
)

// flushLanes are the delays every cell declares as FIFO lanes: the
// lookahead itself, so cross-cell deliveries can land in a lane, and a
// local re-arm delay.
var flushLanes = [...]time.Duration{flushLookahead, 2 * flushLookahead}

// flushOffsets are the extra delays, beyond the lookahead, that sends pick
// from; repeated zeros make colliding timestamps common.
var flushOffsets = [...]time.Duration{0, 0, 0, 1, flushLookahead / 2, flushLookahead, 3}

// flushRun builds the workload that prog describes on a fresh engine of
// cells cells, runs it with run, and returns each cell's fired (id, time)
// sequence, the events processed and the run's error.
//
// prog's first byte sets how many seed events each cell starts with (and,
// in checkFlushOrder, the cell count); the rest is the script. An event
// reads the script byte its id selects: the low two bits give 0–3
// cross-cell sends, the next bits their destinations and timestamp
// offsets, bit 6 a local re-arm and bit 7 its lane delay. Children are one
// level deeper; events at flushMaxDepth do nothing, so the run is finite.
func flushRun(prog []byte, cells int, run func(*Sharded) error) ([][]firedEvent, uint64, error) {
	sh, err := NewSharded(ShardedConfig{Seed: 3, Cells: cells, Lookahead: flushLookahead, MaxEventsPerCell: 50000})
	if err != nil {
		panic(err)
	}
	script := prog[1:]
	fired := make([][]firedEvent, cells)
	nextID := make([]int64, cells) // per creating cell, so ids do not depend on run order
	newID := func(cell int) int64 {
		nextID[cell]++
		return int64(cell)<<32 | nextID[cell]
	}
	var event func(cell, depth int, id int64) func()
	event = func(cell, depth int, id int64) func() {
		return func() {
			e := sh.Cell(cell)
			fired[cell] = append(fired[cell], firedEvent{id, e.Now()})
			if depth >= flushMaxDepth {
				return
			}
			b := script[int(id>>32+id&0xffffffff)%len(script)]
			for k := 0; k < int(b&3); k++ {
				dst := (cell + 1 + (int(b>>2)+k)%(cells-1)) % cells
				at := e.Now() + flushLookahead + flushOffsets[(int(b>>4)+k)%len(flushOffsets)]
				sh.Send(cell, dst, at, Thunk, event(dst, depth+1, newID(cell)), 0) //nolint:errcheck // surfaced by Run
			}
			if b&0x40 != 0 {
				e.ScheduleAtCall(e.Now()+flushLanes[b>>7], event(cell, depth+1, newID(cell))) //nolint:errcheck // now+d is never in the past
			}
		}
	}
	seeds := int(prog[0]%4) + 1
	for c := 0; c < cells; c++ {
		sh.Cell(c).Periodic(flushLanes[0])
		sh.Cell(c).Periodic(flushLanes[1])
		for k := 0; k < seeds; k++ {
			at := time.Duration(k%2) * flushLookahead            // seeds collide across cells
			sh.Cell(c).ScheduleAtCall(at, event(c, 0, newID(c))) //nolint:errcheck // setup time is never in the past
		}
	}
	err = run(sh)
	var processed uint64
	for c := 0; c < cells; c++ {
		processed += sh.Cell(c).Processed()
	}
	return fired, processed, err
}

// checkFlushOrder compares Run against the sorted-merge reference on prog.
func checkFlushOrder(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) < 2 {
		return
	}
	cells := int(prog[0]>>2%3) + 2
	got, gotN, gotErr := flushRun(prog, cells, func(sh *Sharded) error { return sh.Run(0) })
	want, wantN, wantErr := flushRun(prog, cells, runSorted)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Run error %v, reference error %v", gotErr, wantErr)
	}
	if gotN != wantN {
		t.Errorf("Run processed %d events, reference %d", gotN, wantN)
	}
	for c := range want {
		if !reflect.DeepEqual(got[c], want[c]) {
			t.Fatalf("cell %d fired %v,\nreference %v", c, got[c], want[c])
		}
	}
}

// FuzzShardedFlushOrder requires the source-order barrier exchange to fire
// exactly what the (at, src, seq) merge fires, over random multi-source
// outboxes with colliding timestamps into cells with lanes declared.
func FuzzShardedFlushOrder(f *testing.F) {
	f.Add([]byte{0, 3})
	f.Add([]byte{7, 0x43, 0x17, 0xc2, 0x01, 0x3b})
	f.Add([]byte{9, 0xff, 0x42, 0x83, 0x0, 0x63, 0x2e, 0xd1})
	f.Add([]byte{2, 0x47, 0x47, 0x47, 0x47})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		checkFlushOrder(t, prog)
	})
}
