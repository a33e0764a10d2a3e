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
			sh.Send(src, dst, at, fns[dst]) //nolint:errcheck // surfaced by Run
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
// a window runs about cells×burst events: above poolMinEvents when burst is
// large. fired, when non-nil, is called by every burst event with its cell
// and that cell's event counter, on the goroutine running the cell. The
// returned step runs one horizon chunk, as shardedRing's does.
func burstRing(sh *Sharded, burst, work int, chunk time.Duration, fired func(cell int, id uint64)) (step func() error) {
	cells := sh.Cells()
	lookahead := sh.Lookahead()
	// Per-cell counters, a cache line apart so cells on different workers
	// do not share one; sink keeps the spin from being optimized away.
	type cellState struct {
		id, sink uint64
		_        [48]byte
	}
	state := make([]cellState, cells)
	spin := func(_ *Engine, _ any, arg int64) {
		st := &state[arg]
		x := st.id
		for k := 0; k < work; k++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		st.sink ^= x
		st.id++
		if fired != nil {
			fired(int(arg), st.id)
		}
	}
	fns := make([]func(), cells)
	for i := range fns {
		src, dst := i, (i+1)%cells
		fns[src] = func() {
			e := sh.Cell(src)
			for k := 0; k < burst; k++ {
				e.ScheduleAfterFunc(time.Duration(e.Rand().Int63n(int64(lookahead))), spin, nil, int64(src))
			}
			sh.Send(src, dst, e.Now()+lookahead, fns[dst]) //nolint:errcheck // surfaced by Run
		}
	}
	for i := range fns {
		sh.Cell(i).ScheduleAtCall(time.Millisecond, fns[i]) //nolint:errcheck // setup time is never in the past
	}
	return runChunks(sh, chunk)
}

// TestShardedSteadyStateBarrierAllocFree pins the zero-alloc barrier: once
// the merge buffer, outboxes, and cell heaps have warmed up, a full
// windows-and-barriers Run cycle allocates nothing. The single-worker
// coordinator path is the one measured — the pooled path additionally pays
// O(workers) goroutine launches per Run (not per window), which
// testing.AllocsPerRun would count against every iteration.
func TestShardedSteadyStateBarrierAllocFree(t *testing.T) {
	// Windowing is always adaptive; the subtest is named for it.
	t.Run("adaptive", func(t *testing.T) {
		sh, err := NewSharded(ShardedConfig{Seed: 7, Cells: 4, Lookahead: time.Millisecond, Workers: 1})
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
// events do nothing but forward, so ns/op is dominated by window planning,
// dispatch, and flush. dense keeps every cell active each window; sparse
// leaves most cells idle so the run is all barrier overhead over one live
// chain — the regime idle-cell skipping and adaptive windowing target.
func benchBarrier(b *testing.B, cells, activeCells, workers int) {
	sh, err := NewSharded(ShardedConfig{Seed: 7, Cells: cells, Lookahead: time.Millisecond, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, sh, shardedRing(sh, activeCells, 100*time.Millisecond))
}

// benchHeavy measures windows of eight cells, each running burst events of
// 200 spin rounds per window. At burst 64 (~512 events) a Workers 2 run
// hands every window after the first to the pool, and against Workers 1
// it shows what the pool buys once a window is big enough to pay for the
// hand-off. At burst 16 (~128 events) the window sits near the measured
// crossover and below poolMinEvents, so it runs inline unless the
// shardequiv tag forces it through the pool.
func benchHeavy(b *testing.B, burst, workers int) {
	sh, err := NewSharded(ShardedConfig{Seed: 7, Cells: 8, Lookahead: time.Millisecond, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, sh, burstRing(sh, burst, 200, 20*time.Millisecond, nil))
}

// benchSteps warms step up, then times b.N calls and reports the events
// processed, warm-up included, per call.
func benchSteps(b *testing.B, sh *Sharded, step func() error) {
	for i := 0; i < 4; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sh.Processed())/float64(b.N), "events/op")
}

func BenchmarkShardedBarrier(b *testing.B) {
	// The names keep the -adaptive suffix so rows compare like for like
	// with the committed BENCH_<n>.json baselines. The -w2 rows run two
	// workers: dense, sparse and heavy16 windows stay below poolMinEvents
	// and run inline, heavy ones go to the pool. Under the shardequiv tag
	// every -w2 row uses the pool.
	b.Run("dense-adaptive", func(b *testing.B) { benchBarrier(b, 8, 8, 1) })
	b.Run("sparse-adaptive", func(b *testing.B) { benchBarrier(b, 8, 1, 1) })
	b.Run("dense-adaptive-w2", func(b *testing.B) { benchBarrier(b, 8, 8, 2) })
	b.Run("sparse-adaptive-w2", func(b *testing.B) { benchBarrier(b, 8, 1, 2) })
	b.Run("heavy", func(b *testing.B) { benchHeavy(b, 64, 1) })
	b.Run("heavy-w2", func(b *testing.B) { benchHeavy(b, 64, 2) })
	b.Run("heavy16", func(b *testing.B) { benchHeavy(b, 16, 1) })
	b.Run("heavy16-w2", func(b *testing.B) { benchHeavy(b, 16, 2) })
}
