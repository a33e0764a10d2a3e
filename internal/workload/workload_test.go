package workload

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultGameShape(t *testing.T) {
	cfg := DefaultGame()
	if got := cfg.Duration(); got != 146*time.Minute {
		t.Errorf("Duration = %v, want 146m", got)
	}
	updates, err := Schedule(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Expected ~306 snapshots; allow sampling spread.
	if len(updates) < 240 || len(updates) > 380 {
		t.Errorf("update count = %d, want ~306", len(updates))
	}
	// No updates during halftime (65m..81m).
	for _, u := range updates {
		if u.At >= 65*time.Minute && u.At < 81*time.Minute {
			t.Errorf("update %d at %v falls in halftime", u.Snapshot, u.At)
		}
		if u.SizeKB != 1 {
			t.Errorf("update size = %v, want 1", u.SizeKB)
		}
	}
}

// Schedule emits updates in strictly increasing time without sorting them:
// every gap is at least MinGap > 0, and a phase starts where the previous
// one ends. The clamped cases put every gap at exactly MinGap, with phases
// a whole number of gaps long (the last draw of a phase lands on its end
// and is dropped) or shorter than one gap.
func TestScheduleMonotoneNumbered(t *testing.T) {
	clamped := func(minGap time.Duration, durations ...time.Duration) GameConfig {
		cfg := GameConfig{MinGap: minGap}
		for _, d := range durations {
			cfg.Phases = append(cfg.Phases, Phase{Duration: d, MeanGap: time.Nanosecond})
		}
		return cfg
	}
	cases := map[string]GameConfig{
		"default game":          DefaultGame(),
		"short game":            ShortGame(),
		"clamped whole phases":  clamped(time.Second, 3*time.Second, 2*time.Second, time.Second, 4*time.Second),
		"clamped short phases":  clamped(time.Second, 500*time.Millisecond, 1500*time.Millisecond, time.Second),
		"nanosecond min gap":    clamped(time.Nanosecond, 5, 3, 7),
		"silent phase between":  {Phases: []Phase{{Duration: time.Minute, MeanGap: time.Second}, {Duration: time.Minute}, {Duration: time.Minute, MeanGap: time.Millisecond}}},
		"default min gap phase": {Phases: []Phase{{Duration: 10 * time.Second, MeanGap: time.Millisecond}, {Duration: 10 * time.Second, MeanGap: time.Millisecond}}},
	}
	for name, cfg := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			updates, err := Schedule(cfg, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(updates) == 0 {
				t.Fatalf("%s seed %d: no updates", name, seed)
			}
			for i, u := range updates {
				if u.Snapshot != i+1 {
					t.Fatalf("%s seed %d: snapshot %d at position %d", name, seed, u.Snapshot, i)
				}
				if i > 0 && u.At <= updates[i-1].At {
					t.Fatalf("%s seed %d: non-increasing times at %d: %v then %v", name, seed, i, updates[i-1].At, u.At)
				}
			}
		}
	}
	// With every gap 1 s, phases of 3, 2, 1 and 4 s publish at 1, 2 | 4 | - | 7, 8, 9 s.
	updates, _ := Schedule(cases["clamped whole phases"], 1)
	var at []time.Duration
	for _, u := range updates {
		at = append(at, u.At/time.Second)
	}
	if want := []time.Duration{1, 2, 4, 7, 8, 9}; !slices.Equal(at, want) {
		t.Errorf("clamped whole phases publish at %v s, want %v", at, want)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a, err := Schedule(DefaultGame(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(DefaultGame(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d", i)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := Schedule(GameConfig{}, 1); err == nil {
		t.Error("empty phases accepted")
	}
	if _, err := Schedule(GameConfig{Phases: []Phase{{Name: "x", Duration: 0, MeanGap: time.Second}}}, 1); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Schedule(GameConfig{Phases: []Phase{{Name: "x", Duration: time.Minute, MeanGap: -time.Second}}}, 1); err == nil {
		t.Error("negative mean gap accepted")
	}
}

func TestScheduleMinGapEnforced(t *testing.T) {
	cfg := GameConfig{
		Phases: []Phase{{Name: "fast", Duration: 10 * time.Minute, MeanGap: time.Millisecond}},
		MinGap: 2 * time.Second,
	}
	updates, err := Schedule(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(updates); i++ {
		if gap := updates[i].At - updates[i-1].At; gap < 2*time.Second {
			t.Fatalf("gap %v below MinGap", gap)
		}
	}
}

func TestSnapshotAt(t *testing.T) {
	updates := []Update{
		{Snapshot: 1, At: 10 * time.Second},
		{Snapshot: 2, At: 20 * time.Second},
		{Snapshot: 3, At: 30 * time.Second},
	}
	tests := []struct {
		t    time.Duration
		want int
	}{
		{0, 0}, {9 * time.Second, 0}, {10 * time.Second, 1},
		{15 * time.Second, 1}, {20 * time.Second, 2}, {99 * time.Second, 3},
	}
	for _, tt := range tests {
		if got := SnapshotAt(updates, tt.t); got != tt.want {
			t.Errorf("SnapshotAt(%v) = %d, want %d", tt.t, got, tt.want)
		}
	}
	if got := SnapshotAt(nil, time.Second); got != 0 {
		t.Errorf("SnapshotAt(empty) = %d, want 0", got)
	}
}

func TestPropertySnapshotAtMonotone(t *testing.T) {
	updates, err := Schedule(DefaultGame(), 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aMS, bMS uint32) bool {
		a := time.Duration(aMS) * time.Millisecond
		b := time.Duration(bMS) * time.Millisecond
		if a > b {
			a, b = b, a
		}
		return SnapshotAt(updates, a) <= SnapshotAt(updates, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
