// Package workload generates the dynamic-content update schedules and
// end-user visit patterns used throughout the experiments. The model follows
// the paper's trace: a live sports game emits a sequence of statistics
// snapshots, updated frequently while play is on and silent during breaks
// (Section 5: "frequent updates during the match, silence for a long time
// during the breaks").
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Update is one content snapshot publication at the provider.
type Update struct {
	// Snapshot is the 1-based sequence number of the content version.
	Snapshot int
	// At is the publication time relative to the start of the schedule.
	At time.Duration
	// SizeKB is the update payload size.
	SizeKB float64
}

// Phase is one segment of a live event. During a play phase updates arrive
// with exponential gaps of the given mean; during a break (MeanGap == 0) no
// updates occur.
type Phase struct {
	Name     string
	Duration time.Duration
	// MeanGap is the mean inter-update gap; 0 marks a silent break.
	MeanGap time.Duration
}

// GameConfig describes a live event.
type GameConfig struct {
	Phases []Phase
	// SizeKB is the payload size of every update; default 1 KB, the
	// packet size used in the paper's evaluation (Section 4).
	SizeKB float64
	// MinGap floors the exponential draw so two snapshots never collide;
	// default 1s.
	MinGap time.Duration
}

// DefaultGame approximates the paper's trace day: 306 snapshots over
// 2 h 26 min — two halves of play with a mid-game break. With 130 minutes of
// play and a mean gap of 25.5 s the expected count is ~306.
func DefaultGame() GameConfig {
	return GameConfig{
		Phases: []Phase{
			{Name: "first-half", Duration: 65 * time.Minute, MeanGap: 25500 * time.Millisecond},
			{Name: "halftime", Duration: 16 * time.Minute, MeanGap: 0},
			{Name: "second-half", Duration: 65 * time.Minute, MeanGap: 25500 * time.Millisecond},
		},
		SizeKB: 1,
		MinGap: time.Second,
	}
}

// ShortGame is a 12-minute event day: two 5-minute play phases with a mean
// gap of 15 s around a 2-minute break. It keeps crawl fixtures small
// (tracegen -short) while still showing the play/break update pattern.
func ShortGame() GameConfig {
	return GameConfig{
		Phases: []Phase{
			{Name: "play1", Duration: 5 * time.Minute, MeanGap: 15 * time.Second},
			{Name: "break", Duration: 2 * time.Minute},
			{Name: "play2", Duration: 5 * time.Minute, MeanGap: 15 * time.Second},
		},
		SizeKB: 1,
		MinGap: time.Second,
	}
}

// Duration returns the total event length.
func (c GameConfig) Duration() time.Duration {
	var total time.Duration
	for _, p := range c.Phases {
		total += p.Duration
	}
	return total
}

// Schedule draws a concrete update schedule from the config. Snapshots are
// numbered from 1 in time order. The same seed yields the same schedule.
func Schedule(cfg GameConfig, seed int64) ([]Update, error) {
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("workload: no phases")
	}
	if cfg.SizeKB <= 0 {
		cfg.SizeKB = 1
	}
	if cfg.MinGap <= 0 {
		cfg.MinGap = time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	var (
		updates []Update
		offset  time.Duration
	)
	for _, p := range cfg.Phases {
		if p.Duration <= 0 {
			return nil, fmt.Errorf("workload: phase %q has non-positive duration", p.Name)
		}
		if p.MeanGap < 0 {
			return nil, fmt.Errorf("workload: phase %q has negative mean gap", p.Name)
		}
		if p.MeanGap > 0 {
			t := offset
			for {
				gap := time.Duration(rng.ExpFloat64() * float64(p.MeanGap))
				if gap < cfg.MinGap {
					gap = cfg.MinGap
				}
				t += gap
				if t >= offset+p.Duration {
					break
				}
				updates = append(updates, Update{At: t, SizeKB: cfg.SizeKB})
			}
		}
		offset += p.Duration
	}
	// Every gap is at least MinGap > 0 and each phase starts where the
	// last one ended, so updates are already in strictly increasing time.
	for i := range updates {
		updates[i].Snapshot = i + 1
	}
	return updates, nil
}

// SnapshotAt returns the snapshot number visible at the provider at time t
// given a schedule (0 before the first update). The schedule must be sorted
// by time, which Schedule guarantees.
func SnapshotAt(updates []Update, t time.Duration) int {
	lo := sort.Search(len(updates), func(i int) bool { return updates[i].At > t })
	if lo == 0 {
		return 0
	}
	return updates[lo-1].Snapshot
}
