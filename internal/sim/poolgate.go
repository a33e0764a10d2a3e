//go:build !shardequiv

package sim

// poolMinEvents is the smallest previous-window event count for which the
// next window is handed to the worker pool rather than run inline on the
// coordinator. On a 2-CPU host two pooled workers first beat one inline
// coordinator at about 136 events per window (8 cells of ~350 ns events);
// the gate sits at twice that, so a window that clears it gains even on a
// noisy host.
//
// The shardequiv build tag sets the gate to 0 (poolgate_shardequiv.go), so
// every window with several active cells goes through the pool. `make
// shard-equiv` builds with it, which lets the race detector see the model's
// cells run on separate goroutines, and
//
//	go test -tags shardequiv -run '^$' -bench 'ShardedBarrier/heavy' ./internal/sim
//
// reproduces the crossover: heavy16 against heavy16-w2 sits near it, heavy
// against heavy-w2 above it.
const poolMinEvents = 256
