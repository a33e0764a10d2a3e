package tracegen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/workload"
)

// orderConfigs are the crawls whose JSONL bytes are pinned, as recorded
// when Generate still sorted its records. "colliding" is a one-phase game
// of 303 ns polled every 7 ns by 62 pollers, so many pollers share a poll
// offset and tie on At at every tick, and the day ends 2 ns into a tick,
// so only some pollers poll at the last tick. "short" is a -short crawl at
// the default cadence, where no poller polls at the last tick.
var orderConfigs = []struct {
	name string
	cfg  Config
	ties bool // pollers tie on At
	pin  string
}{
	{"colliding", Config{
		Topology: topology.Config{Servers: 40, Seed: 1},
		Game: workload.GameConfig{
			Phases: []workload.Phase{{Name: "play", Duration: 303 * time.Nanosecond, MeanGap: 20 * time.Nanosecond}},
			MinGap: 3 * time.Nanosecond,
		},
		Days:         2,
		PollInterval: 7 * time.Nanosecond,
		ServerTTL:    50 * time.Nanosecond,
		Users:        12,
		Seed:         5,
	}, true, "57a63b93d03e144b"},
	{"short", Config{
		Topology: topology.Config{Servers: 12, Seed: 2},
		Game:     workload.ShortGame(),
		Days:     2,
		Users:    5,
		Seed:     3,
	}, false, "f9afd342869024b4"},
}

// TestGenerateInCanonicalOrder requires each orderConfigs crawl to list
// its records in canonical order (trace.Compare), without a sort, and pins
// its JSONL bytes.
func TestGenerateInCanonicalOrder(t *testing.T) {
	for _, oc := range orderConfigs {
		t.Run(oc.name, func(t *testing.T) {
			res := mustGenerate(t, oc.cfg)
			recs := res.Trace.Records
			ties := 0
			for i := 1; i < len(recs); i++ {
				if trace.Compare(&recs[i-1], &recs[i]) >= 0 {
					t.Fatalf("record %d out of canonical order: %+v after %+v", i, recs[i], recs[i-1])
				}
				if recs[i].Day == recs[i-1].Day && recs[i].At == recs[i-1].At {
					ties++
				}
			}
			if (ties > 0) != oc.ties {
				t.Errorf("%d records tie on At with the one before, want ties %v", ties, oc.ties)
			}
			var b bytes.Buffer
			if err := trace.Write(&b, res.Trace); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b.Bytes())
			if got := hex.EncodeToString(sum[:8]); got != oc.pin {
				t.Errorf("JSONL pin %s, want %s (%d records)", got, oc.pin, len(recs))
			}
		})
	}
}
