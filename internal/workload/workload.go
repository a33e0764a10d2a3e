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
	sort.Slice(updates, func(i, j int) bool { return updates[i].At < updates[j].At })
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

// VisitPattern generates end-user request times.
type VisitPattern struct {
	// Period is the end-user polling interval (the paper's end-user TTL,
	// 10 s in the trace).
	Period time.Duration
	// Start offsets the first visit; the paper randomizes it in [0, 50s].
	Start time.Duration
}

// Visits returns all visit times in [Start, horizon].
func (v VisitPattern) Visits(horizon time.Duration) ([]time.Duration, error) {
	if v.Period <= 0 {
		return nil, fmt.Errorf("workload: visit period must be positive, got %v", v.Period)
	}
	if v.Start < 0 {
		return nil, fmt.Errorf("workload: negative start %v", v.Start)
	}
	var out []time.Duration
	for t := v.Start; t <= horizon; t += v.Period {
		out = append(out, t)
	}
	return out, nil
}

// PoissonVisits draws visit times as a Poisson process with the given mean
// inter-arrival time over [0, horizon]. The paper's users poll strictly
// periodically; Poisson arrivals model organic traffic for workloads beyond
// the trace (e.g. the online-social-network pattern of Section 5).
func PoissonVisits(mean, horizon time.Duration, seed int64) ([]time.Duration, error) {
	if mean <= 0 {
		return nil, fmt.Errorf("workload: non-positive mean inter-arrival %v", mean)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("workload: negative horizon %v", horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := time.Duration(rng.ExpFloat64() * float64(mean))
	for t <= horizon {
		out = append(out, t)
		t += time.Duration(rng.ExpFloat64() * float64(mean))
	}
	return out, nil
}

// RandomStarts draws n start offsets uniformly in [0, max), as the paper does
// for end-user request arrival (Section 4: "randomly chosen from [0s,50s]").
func RandomStarts(n int, max time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		if max > 0 {
			out[i] = time.Duration(rng.Int63n(int64(max)))
		}
	}
	return out
}
