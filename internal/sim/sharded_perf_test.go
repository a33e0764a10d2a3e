package sim

import (
	"testing"
	"time"
)

// shardedRing wires a cross-cell ring workload onto sh: every active cell
// forwards one send per hop to its neighbor, lookahead apart. The returned
// step runs one horizon chunk; calling it repeatedly keeps the ring going
// with no per-call setup (closures are built once), which is what the
// steady-state alloc test and the barrier benchmarks need.
func shardedRing(sh *Sharded, activeCells int, chunk time.Duration) (step func() error) {
	cells := sh.Cells()
	lookahead := sh.Lookahead()
	fns := make([]func(), cells)
	for i := 0; i < activeCells; i++ {
		src := i % cells
		dst := (src + 1) % activeCells % cells
		fns[src] = func() {
			at := sh.Cell(src).Now() + lookahead
			sh.Send(src, dst, at, Thunk, fns[dst], 0) //nolint:errcheck // surfaced by Run
		}
	}
	for i := 0; i < activeCells; i++ {
		i := i
		sh.Cell(i).ScheduleAfter(time.Duration(i+1)*time.Millisecond, func(*Engine) { fns[i]() })
	}
	return runChunks(sh, chunk)
}

// runChunks returns a step that advances sh's horizon by chunk and runs to
// it.
func runChunks(sh *Sharded, chunk time.Duration) (step func() error) {
	var horizon time.Duration
	return func() error {
		horizon += chunk
		return sh.Run(horizon)
	}
}

// burstRing wires a ring like shardedRing's in which every cell is active
// every window and each arrival fans out into burst local events at random
// offsets inside the lookahead, each spinning work rounds of arithmetic, so
// a window runs about cells×burst events. The returned step runs one horizon
// chunk, as shardedRing's does.
func burstRing(sh *Sharded, burst, work int, chunk time.Duration) (step func() error) {
	cells := sh.Cells()
	lookahead := sh.Lookahead()
	// sink keeps each cell's spin from being optimized away.
	sink := make([]uint64, cells)
	spin := func(_ *Engine, _ any, arg int64) {
		x := sink[arg]
		for k := 0; k < work; k++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink[arg] = x
	}
	fns := make([]func(), cells)
	for i := range fns {
		src, dst := i, (i+1)%cells
		fns[src] = func() {
			e := sh.Cell(src)
			for k := 0; k < burst; k++ {
				e.ScheduleAfterFunc(time.Duration(e.Rand().Int63n(int64(lookahead))), spin, nil, int64(src))
			}
			sh.Send(src, dst, e.Now()+lookahead, Thunk, fns[dst], 0) //nolint:errcheck // surfaced by Run
		}
	}
	for i := range fns {
		sh.Cell(i).ScheduleAtCall(time.Millisecond, fns[i]) //nolint:errcheck // setup time is never in the past
	}
	return runChunks(sh, chunk)
}

// TestShardedSteadyStateBarrierAllocFree pins the zero-alloc barrier: once
// the merge buffer, outboxes, and cell heaps have warmed up, a full
// windows-and-barriers Run cycle allocates nothing.
func TestShardedSteadyStateBarrierAllocFree(t *testing.T) {
	// Windowing is always adaptive; the subtest is named for it.
	t.Run("adaptive", func(t *testing.T) {
		sh, err := NewSharded(ShardedConfig{Seed: 7, Cells: 4, Lookahead: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		step := shardedRing(sh, 4, 50*time.Millisecond)
		for i := 0; i < 8; i++ { // warm up buffers, slots, and outboxes
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("steady-state sharded Run costs %v allocs/op, want 0", avg)
		}
	})
}

// benchBarrier measures the windows-and-barriers machinery itself: the ring
// events do nothing but forward, so ns/op is dominated by window planning
// and flush. dense keeps every cell active each window; sparse leaves most
// cells idle so the run is all barrier overhead over one live chain — the
// regime idle-cell skipping and adaptive windowing target.
func benchBarrier(b *testing.B, cells, activeCells int) {
	sh, err := NewSharded(ShardedConfig{Seed: 7, Cells: cells, Lookahead: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, sh, shardedRing(sh, activeCells, 100*time.Millisecond))
}

// benchHeavy measures windows of eight cells, each running burst events of
// 200 spin rounds per window: about 512 events a window at burst 64 and 128
// at burst 16, so the barrier's share of ns/op shrinks as burst grows.
func benchHeavy(b *testing.B, burst int) {
	sh, err := NewSharded(ShardedConfig{Seed: 7, Cells: 8, Lookahead: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, sh, burstRing(sh, burst, 200, 20*time.Millisecond))
}

// benchSteps warms step up, then times b.N calls and reports the events
// processed per timed call.
func benchSteps(b *testing.B, sh *Sharded, step func() error) {
	for i := 0; i < 4; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	warm := sh.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sh.Processed()-warm)/float64(b.N), "events/op")
}

func BenchmarkShardedBarrier(b *testing.B) {
	// The names keep the -adaptive suffix so rows compare like for like
	// with the committed BENCH_<n>.json baselines.
	b.Run("dense-adaptive", func(b *testing.B) { benchBarrier(b, 8, 8) })
	b.Run("sparse-adaptive", func(b *testing.B) { benchBarrier(b, 8, 1) })
	b.Run("heavy", func(b *testing.B) { benchHeavy(b, 64) })
	b.Run("heavy16", func(b *testing.B) { benchHeavy(b, 16) })
}
