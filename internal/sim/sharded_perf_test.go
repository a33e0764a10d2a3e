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
	var horizon time.Duration
	return func() error {
		horizon += chunk
		return sh.Run(horizon)
	}
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
	step := shardedRing(sh, activeCells, 100*time.Millisecond)
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
	// with the committed BENCH_<n>.json baselines.
	b.Run("dense-adaptive", func(b *testing.B) { benchBarrier(b, 8, 8, 1) })
	b.Run("sparse-adaptive", func(b *testing.B) { benchBarrier(b, 8, 1, 1) })
}
