package tracegen

import (
	"math/rand"
	"testing"
	"time"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

func smallConfig() Config {
	return Config{
		Topology: topology.Config{Servers: 60, Seed: 1},
		Days:     2,
		Users:    20,
		Seed:     1,
	}
}

func mustGenerate(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return res
}

func TestGenerateValidTrace(t *testing.T) {
	res := mustGenerate(t, smallConfig())
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if len(res.Schedules) != 2 {
		t.Fatalf("schedules = %d, want 2", len(res.Schedules))
	}
	if len(res.Trace.Servers) != 60 {
		t.Fatalf("servers = %d, want 60", len(res.Trace.Servers))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallConfig())
	b := mustGenerate(t, smallConfig())
	if len(a.Trace.Records) != len(b.Trace.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Trace.Records), len(b.Trace.Records))
	}
	for i := range a.Trace.Records {
		if a.Trace.Records[i] != b.Trace.Records[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

func TestRecordKindsPresent(t *testing.T) {
	res := mustGenerate(t, smallConfig())
	var server, provider, user, absent int
	for _, r := range res.Trace.Records {
		switch {
		case r.Provider:
			provider++
		case r.UserView:
			user++
		default:
			server++
		}
		if r.Absent {
			absent++
		}
	}
	if server == 0 || provider == 0 || user == 0 {
		t.Fatalf("missing record kinds: server=%d provider=%d user=%d", server, provider, user)
	}
	if absent == 0 {
		t.Error("no absence records generated")
	}
}

func TestSnapshotsMonotonePerServer(t *testing.T) {
	res := mustGenerate(t, smallConfig())
	last := map[string]int{}
	for _, r := range res.Trace.Records {
		if r.Absent || r.UserView || r.Provider || r.Day != 0 {
			continue
		}
		if r.Snapshot < last[r.Server] {
			t.Fatalf("server %s snapshot went backwards: %d -> %d at %v",
				r.Server, last[r.Server], r.Snapshot, r.At)
		}
		last[r.Server] = r.Snapshot
	}
}

func TestServerStalenessBoundedByTTLPlusLag(t *testing.T) {
	cfg := smallConfig()
	cfg.AbsencesPerServerDay = 1e-9 // effectively disable absences
	res := mustGenerate(t, cfg)
	updates := res.Schedules[0]
	ttl := res.Trace.Meta.ServerTTL
	// Without absences, a server's observed snapshot can lag the provider
	// by at most TTL (cache age) + fetch lag (resp + ISP bias + provider
	// staleness, < 75 s worst case here).
	maxLag := ttl + 75*time.Second
	for _, r := range res.Trace.Records {
		if r.Day != 0 || r.Absent || r.Provider || r.UserView {
			continue
		}
		cur := workload.SnapshotAt(updates, r.At)
		if cur == 0 || r.Snapshot >= cur {
			continue
		}
		// Find the publication time of the snapshot after the observed
		// one; the server must have refreshed within maxLag before now.
		next := updates[r.Snapshot].At // snapshot IDs are 1-based
		if r.At-next > maxLag {
			t.Fatalf("server %s at %v shows snapshot %d; snapshot %d published %v ago (> %v)",
				r.Server, r.At, r.Snapshot, r.Snapshot+1, r.At-next, maxLag)
		}
	}
}

func TestProviderRecordsAreFresh(t *testing.T) {
	res := mustGenerate(t, smallConfig())
	updates := res.Schedules[0]
	var lagSum time.Duration
	var n int
	for _, r := range res.Trace.Records {
		if !r.Provider || r.Day != 0 {
			continue
		}
		cur := workload.SnapshotAt(updates, r.At)
		if r.Snapshot > cur {
			t.Fatalf("provider served future snapshot %d at %v (current %d)", r.Snapshot, r.At, cur)
		}
		if r.Snapshot < cur {
			lagSum += r.At - updates[r.Snapshot].At
			n++
		}
	}
	if n == 0 {
		return
	}
	mean := lagSum / time.Duration(n)
	if mean > 15*time.Second {
		t.Errorf("provider mean staleness %v, want small (paper: 3.4s)", mean)
	}
}

func TestUserRedirectionRate(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 50
	res := mustGenerate(t, cfg)
	prev := map[string]string{}
	redirected, total := 0, 0
	for _, r := range res.Trace.Records {
		if !r.UserView {
			continue
		}
		if p, ok := prev[r.Poller]; ok {
			total++
			if p != r.Server {
				redirected++
			}
		}
		prev[r.Poller] = r.Server
	}
	if total == 0 {
		t.Fatal("no user-view transitions")
	}
	rate := float64(redirected) / float64(total)
	// redirectProb is 0.15, but a redirect can land on the same server.
	if rate < 0.08 || rate > 0.25 {
		t.Errorf("redirect rate = %.3f, want ~0.15", rate)
	}
}

func TestAbsenceHelpers(t *testing.T) {
	sd := serverDay{absences: []absence{{start: 10 * time.Second, end: 20 * time.Second}}}
	if !sd.absentAt(15 * time.Second) {
		t.Error("absentAt inside interval = false")
	}
	if sd.absentAt(20 * time.Second) {
		t.Error("absentAt at end = true (interval should be half-open)")
	}
	if got := absenceEnd(sd.absences, 15*time.Second); got != 20*time.Second {
		t.Errorf("absenceEnd = %v", got)
	}
	if got := absenceEnd(sd.absences, 5*time.Second); got != 5*time.Second {
		t.Errorf("absenceEnd outside = %v", got)
	}
}

func TestCachedAt(t *testing.T) {
	sd := serverDay{
		refreshAt: []time.Duration{10 * time.Second, 70 * time.Second},
		snapshot:  []int{3, 7},
	}
	tests := []struct {
		t    time.Duration
		want int
	}{
		{5 * time.Second, 0}, {10 * time.Second, 3}, {69 * time.Second, 3},
		{70 * time.Second, 7}, {500 * time.Second, 7},
	}
	for _, tt := range tests {
		if got := sd.cachedAt(tt.t); got != tt.want {
			t.Errorf("cachedAt(%v) = %d, want %d", tt.t, got, tt.want)
		}
	}
}

func TestDrawAbsencesMergedAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	day := 2 * time.Hour
	for i := 0; i < 200; i++ {
		abs := drawAbsences(rng, 3, day)
		for j, a := range abs {
			if a.start < 0 || a.end > day+500*time.Second || a.end <= a.start {
				t.Fatalf("bad absence %+v", a)
			}
			if j > 0 && a.start <= abs[j-1].end {
				t.Fatalf("unmerged overlap: %+v then %+v", abs[j-1], a)
			}
			if a.end-a.start > 500*time.Second {
				t.Fatalf("absence too long: %v", a.end-a.start)
			}
		}
	}
}

func TestAbsenceLengthDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var under10, under50, total int
	for i := 0; i < 500; i++ {
		for _, a := range drawAbsences(rng, 2, 3*time.Hour) {
			l := a.end - a.start
			total++
			if l < 10*time.Second {
				under10++
			}
			if l < 50*time.Second {
				under50++
			}
		}
	}
	if total == 0 {
		t.Fatal("no absences drawn")
	}
	f10 := float64(under10) / float64(total)
	f50 := float64(under50) / float64(total)
	// Paper Fig 10(b): ~30% under 10 s, ~93% under 50 s.
	if f10 < 0.15 || f10 > 0.5 {
		t.Errorf("fraction under 10s = %.2f, want ~0.30", f10)
	}
	if f50 < 0.80 || f50 > 0.99 {
		t.Errorf("fraction under 50s = %.2f, want ~0.93", f50)
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := poisson(rng, 0); got != 0 {
		t.Errorf("poisson(0) = %d", got)
	}
	var sum int
	const trials = 5000
	for i := 0; i < trials; i++ {
		sum += poisson(rng, 2.5)
	}
	mean := float64(sum) / trials
	if mean < 2.2 || mean > 2.8 {
		t.Errorf("poisson mean = %.2f, want ~2.5", mean)
	}
}

func TestGenerateErrorsPropagate(t *testing.T) {
	cfg := smallConfig()
	cfg.Topology.Servers = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("bad topology accepted")
	}
}
