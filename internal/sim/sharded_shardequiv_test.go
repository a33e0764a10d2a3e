//go:build shardequiv

package sim

import (
	"testing"
	"time"
)

func TestShardedShardequivPoolsSmallWindows(t *testing.T) {
	// The shardequiv tag drops the hand-off gate so that the race-detector
	// runs of `make shard-equiv` execute cells on pool goroutines even
	// though the model's windows hold a few events each. A burst-1 ring
	// keeps every cell active with about two events per window, far below
	// the untagged gate.
	sh, err := NewSharded(ShardedConfig{Seed: 3, Cells: 8, Lookahead: time.Millisecond, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := burstRing(sh, 1, 0, 20*time.Millisecond, nil)(); err != nil {
		t.Fatal(err)
	}
	if sh.dispatches == 0 {
		t.Fatalf("no window reached the pool under the shardequiv tag (poolMinEvents = %d)", poolMinEvents)
	}
}
