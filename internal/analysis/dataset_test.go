package analysis

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
)

// tinyTrace builds a 1-day trace with two servers and a fully controlled
// snapshot timeline:
//
//	t=10s  s1 shows C1 (alpha_C1 = 10s)
//	t=20s  s2 shows C1
//	t=30s  s1 shows C2 (alpha_C2 = 30s)
//	t=40s  s2 shows C1  <- stale by 10s (C2 appeared at 30s)
//	t=50s  s2 shows C2
//	t=60s  s1 shows C3 (alpha_C3 = 60s)
//	t=70s  s2 shows C2  <- stale by 10s
func tinyTrace() *trace.Trace {
	mk := func(server string, atSec int, snap int) trace.PollRecord {
		return trace.PollRecord{
			Day: 0, Server: server, Poller: "p-" + server,
			At: time.Duration(atSec) * time.Second, Snapshot: snap,
			RTT: 50 * time.Millisecond,
		}
	}
	return &trace.Trace{
		Meta: trace.Meta{
			Description: "tiny", Days: 1,
			PollInterval: 10 * time.Second,
			DayLength:    100 * time.Second,
			ServerTTL:    60 * time.Second,
		},
		Servers: []trace.ServerInfo{
			{ID: "s1", ISP: 1, City: 0, DistanceKm: 100},
			{ID: "s2", ISP: 2, City: 1, DistanceKm: 5000},
		},
		Records: []trace.PollRecord{
			mk("s1", 10, 1), mk("s2", 20, 1),
			mk("s1", 30, 2), mk("s2", 40, 1),
			mk("s2", 50, 2), mk("s1", 60, 3),
			mk("s2", 70, 2),
		},
	}
}

func mustDataset(t *testing.T, tr *trace.Trace) *Dataset {
	t.Helper()
	d, err := NewDataset(tr)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	return d
}

func TestNewDatasetRejectsInvalid(t *testing.T) {
	tr := tinyTrace()
	tr.Meta.Days = 0
	if _, err := NewDataset(tr); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestAlphas(t *testing.T) {
	d := mustDataset(t, tinyTrace())
	want := map[int]time.Duration{
		1: 10 * time.Second,
		2: 30 * time.Second,
		3: 60 * time.Second,
	}
	for snap, at := range want {
		if got := d.alphas[0][snap]; got != at {
			t.Errorf("alpha[%d] = %v, want %v", snap, got, at)
		}
	}
}

func TestRequestInconsistencies(t *testing.T) {
	d := mustDataset(t, tinyTrace())
	ri, err := d.RequestInconsistencies(0)
	if err != nil {
		t.Fatal(err)
	}
	// Episodes (catch-up delays): s1 defines every alpha, so its three
	// episodes are fresh. s2 catches C1 at 20 (alpha 10 -> 10s) and C2 at
	// 50 (alpha 30 -> 20s); it never catches C3 (skipped).
	if ri.Total != 5 {
		t.Errorf("Total = %d, want 5", ri.Total)
	}
	if ri.Fresh != 3 {
		t.Errorf("Fresh = %d, want 3", ri.Fresh)
	}
	if len(ri.Lengths) != 2 {
		t.Fatalf("Lengths = %v, want two entries", ri.Lengths)
	}
	if math.Abs(ri.Lengths[0]-10) > 1e-9 || math.Abs(ri.Lengths[1]-20) > 1e-9 {
		t.Errorf("Lengths = %v, want [10 20]", ri.Lengths)
	}
	if math.Abs(ri.Mean()-15) > 1e-9 {
		t.Errorf("Mean = %v, want 15", ri.Mean())
	}
}

func TestRequestInconsistenciesBadDay(t *testing.T) {
	d := mustDataset(t, tinyTrace())
	if _, err := d.RequestInconsistencies(5); err == nil {
		t.Error("bad day accepted")
	}
	if _, err := d.RequestInconsistencies(-1); err == nil {
		t.Error("negative day accepted")
	}
}

func TestMeanEmpty(t *testing.T) {
	var ri RequestInconsistency
	if ri.Mean() != 0 {
		t.Error("Mean of empty != 0")
	}
}

func TestPerServerInconsistency(t *testing.T) {
	d := mustDataset(t, tinyTrace())
	per, err := d.PerServerInconsistency(0)
	if err != nil {
		t.Fatal(err)
	}
	if s1 := per[d.ix.ServerID("s1")]; len(s1) != 0 {
		t.Errorf("s1 lengths = %v, want none", s1)
	}
	if s2 := per[d.ix.ServerID("s2")]; len(s2) != 2 {
		t.Errorf("s2 lengths = %v, want 2", s2)
	}
}

func TestScopedInconsistencies(t *testing.T) {
	d := mustDataset(t, tinyTrace())
	s2 := []int{d.ix.ServerID("s2")}
	// Alpha scoped to s2 alone: s2's own first appearances (C1@20,
	// C2@50) define the alphas, so every episode is fresh.
	ri, err := d.ScopedInconsistencies(0, s2, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ri.Lengths) != 0 {
		t.Errorf("self-scoped s2 lengths = %v, want none (its own alphas)", ri.Lengths)
	}
	// Alpha scoped to s1 (the other cluster): alpha_C2=30, alpha_C3=60.
	s1 := []int{d.ix.ServerID("s1")}
	ri, err = d.ScopedInconsistencies(0, s2, s1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ri.Lengths) != 2 {
		t.Errorf("cross-scoped lengths = %v, want 2", ri.Lengths)
	}
}

// scopedByFiltering is ScopedInconsistencies computed the direct way: filter
// the day's crawler records by scope and by membership, derive the alphas
// from the scope's records, and run the episode measure per member server.
func scopedByFiltering(d *Dataset, day int, servers, alphaScope []int) RequestInconsistency {
	var scope []int32
	member := map[int][]int32{}
	for p := range d.Trace.Records {
		r := &d.Trace.Records[p]
		if r.Day != day || r.Provider || r.UserView {
			continue
		}
		s := d.ix.ServerID(r.Server)
		if slices.Contains(alphaScope, s) {
			scope = append(scope, int32(p))
		}
		member[s] = append(member[s], int32(p))
	}
	alphas := d.computeAlphas(scope)
	var out RequestInconsistency
	for _, s := range servers {
		out.add(d.episodeLengths(member[s], alphas, sortedSnapshots(alphas)))
	}
	return out
}

// crawlScopes returns every ISP and city cluster of a generated crawl with
// its complement, the scopes Fig05 and Fig09 pass.
func crawlScopes(t *testing.T) (*Dataset, [][2][]int) {
	t.Helper()
	res, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: 24, Seed: 3},
		Days:     2,
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("tracegen.Generate: %v", err)
	}
	d := mustDataset(t, res.Trace)
	var scopes [][2][]int
	for _, c := range crawlClusters(d) {
		var others []int
		for s := range d.ix.Servers {
			if !slices.Contains(c.Members, s) {
				others = append(others, s)
			}
		}
		scopes = append(scopes, [2][]int{c.Members, c.Members}, [2][]int{c.Members, others})
	}
	return d, scopes
}

// crawlClusters returns the ISP and city clusters of a crawl, which overlap.
func crawlClusters(d *Dataset) []Cluster {
	at := map[string]int{}
	var out []Cluster
	for s, srv := range d.ix.Servers {
		for _, key := range []string{fmt.Sprintf("isp-%d", srv.ISP), fmt.Sprintf("city-%d", srv.City)} {
			c, ok := at[key]
			if !ok {
				c = len(out)
				at[key] = c
				out = append(out, Cluster{Key: key})
			}
			out[c].Members = append(out[c].Members, s)
		}
	}
	return out
}

// TestScopedInconsistenciesMatchesFiltering checks the per-server index
// against the direct definition on every intra and inter scope of a
// generated crawl: same lengths in the same order, same counts.
func TestScopedInconsistenciesMatchesFiltering(t *testing.T) {
	d, scopes := crawlScopes(t)
	for day := 0; day < d.Days(); day++ {
		for _, sc := range scopes {
			got, err := d.ScopedInconsistencies(day, sc[0], sc[1])
			if err != nil {
				t.Fatal(err)
			}
			if want := scopedByFiltering(d, day, sc[0], sc[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("day %d: indexed %+v, filtered %+v", day, got, want)
			}
		}
		got, err := d.RequestInconsistencies(day)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(d.ix.Servers))
		for s := range all {
			all[s] = s
		}
		if want := scopedByFiltering(d, day, all, all); !reflect.DeepEqual(got, want) {
			t.Fatalf("day %d: RequestInconsistencies %+v, want %+v", day, got, want)
		}
	}
}

// TestDatasetIndexConcurrentReaders has goroutines race to build the lazy
// per-server tables through every reader of them; each must see the serial
// answers (run under -race).
func TestDatasetIndexConcurrentReaders(t *testing.T) {
	d, scopes := crawlScopes(t)
	type answer struct {
		scoped []RequestInconsistency
		all    RequestInconsistency
		per    [][]float64
	}
	read := func(d *Dataset) (answer, error) {
		var a answer
		for _, sc := range scopes {
			ri, err := d.ScopedInconsistencies(0, sc[0], sc[1])
			if err != nil {
				return a, err
			}
			a.scoped = append(a.scoped, ri)
		}
		a.all = d.RequestInconsistenciesAll()
		per, err := d.PerServerInconsistency(1)
		a.per = per
		return a, err
	}
	fresh, err := NewDataset(d.Trace)
	if err != nil {
		t.Fatal(err)
	}
	want, err := read(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]answer, 4)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = read(d)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("reader %d saw different answers", i)
		}
	}
}

func TestProviderInconsistencies(t *testing.T) {
	tr := tinyTrace()
	tr.Records = append(tr.Records,
		trace.PollRecord{Day: 0, Server: "origin", Poller: "pp", At: 10 * time.Second, Snapshot: 1, Provider: true},
		trace.PollRecord{Day: 0, Server: "origin", Poller: "pp", At: 20 * time.Second, Snapshot: 2, Provider: true},
		trace.PollRecord{Day: 0, Server: "origin", Poller: "pp2", At: 25 * time.Second, Snapshot: 1, Provider: true},
	)
	d := mustDataset(t, tr)
	ri, err := d.ProviderInconsistencies(0)
	if err != nil {
		t.Fatal(err)
	}
	// Observers are pollers for provider records. pp defines both alphas
	// (C1@10, C2@20): fresh. pp2 first shows C1 at 25: delay 15s; it
	// never shows C2.
	if len(ri.Lengths) != 1 || math.Abs(ri.Lengths[0]-15) > 1e-9 {
		t.Errorf("provider lengths = %v, want [15]", ri.Lengths)
	}
}

func TestConsistencyRatio(t *testing.T) {
	d := mustDataset(t, tinyTrace())
	ratios := d.ConsistencyRatio()
	// s1's polls are all fresh: ratio 1. s2 is stale on 2 of its 4 polls
	// (at 40s showing C1 after C2 appeared, at 70s showing C2 after C3):
	// ratio 0.5.
	if r := ratios[d.ix.ServerID("s1")]; math.Abs(r-1) > 1e-9 {
		t.Errorf("s1 ratio = %v, want 1", r)
	}
	if r := ratios[d.ix.ServerID("s2")]; math.Abs(r-0.5) > 1e-9 {
		t.Errorf("s2 ratio = %v, want 0.5", r)
	}
}

func TestAbsentRecordsIgnoredInAlpha(t *testing.T) {
	tr := tinyTrace()
	tr.Records = append(tr.Records, trace.PollRecord{
		Day: 0, Server: "s1", Poller: "p-s1", At: 5 * time.Second, Absent: true,
	})
	d := mustDataset(t, tr)
	if got := d.alphas[0][1]; got != 10*time.Second {
		t.Errorf("alpha[1] = %v after absent record, want 10s", got)
	}
	ri, err := d.RequestInconsistencies(0)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Total != 5 {
		t.Errorf("Total = %d, want 5 (absent excluded)", ri.Total)
	}
}

func TestDatasetAccessors(t *testing.T) {
	d := mustDataset(t, tinyTrace())
	if d.Days() != 1 {
		t.Errorf("Days = %d", d.Days())
	}
	day := d.ix.Days[0]
	if n := len(day.ByTime[trace.CrawlKind]); n != 7 {
		t.Errorf("crawler records = %d", n)
	}
	if n := len(day.Crawl[d.ix.ServerID("s1")]); n != 3 {
		t.Errorf("s1 crawler records = %d", n)
	}
	if len(day.Provider) != 2 || len(day.Provider[0])+len(day.Provider[1]) != 0 {
		t.Errorf("provider records = %v", day.Provider)
	}
	if len(day.User) != 2 || len(day.User[0])+len(day.User[1]) != 0 {
		t.Errorf("user records = %v", day.User)
	}
}

// TestServersLabelDenseIDs checks that Servers and ServerID map the dense
// ids the per-server results use back to server ids and forth, and that
// clusters built over Servers feed the cluster analyses.
func TestServersLabelDenseIDs(t *testing.T) {
	tr := tinyTrace()
	tr.Servers[0], tr.Servers[1] = tr.Servers[1], tr.Servers[0]
	d := mustDataset(t, tr)
	servers := d.Servers()
	if len(servers) != 2 || servers[0].ID != "s1" || servers[1].ID != "s2" {
		t.Fatalf("Servers = %+v, want s1 then s2", servers)
	}
	for s, srv := range servers {
		if got := d.ServerID(srv.ID); got != s {
			t.Errorf("ServerID(%s) = %d, want %d", srv.ID, got, s)
		}
	}
	if got := d.ServerID("ghost"); got != -1 {
		t.Errorf("ServerID(ghost) = %d, want -1", got)
	}
	if n := len(d.ConsistencyRatio()); n != len(servers) {
		t.Errorf("ConsistencyRatio has %d entries for %d servers", n, len(servers))
	}
	var byISP []Cluster
	for s, srv := range servers {
		byISP = append(byISP, Cluster{Key: fmt.Sprintf("isp-%d", srv.ISP), Members: []int{s}})
	}
	daily, err := d.ClusterDailyInconsistency(byISP)
	if err != nil {
		t.Fatal(err)
	}
	if len(daily) != 2 || daily[0].Key != "isp-1" || daily[1].Key != "isp-2" {
		t.Errorf("ISP clusters = %+v", daily)
	}
}

func TestNextObserved(t *testing.T) {
	order := []int{1, 3, 7}
	tests := []struct {
		s, want int
	}{
		{0, 1}, {1, 3}, {2, 3}, {3, 7}, {7, 0}, {9, 0},
	}
	for _, tt := range tests {
		if got := nextObserved(order, tt.s); got != tt.want {
			t.Errorf("nextObserved(%d) = %d, want %d", tt.s, got, tt.want)
		}
	}
}

// BenchmarkNewDataset times indexing a crawl of perfbench crawl-replay's
// size: 32 servers, 2 days, 12 users.
func BenchmarkNewDataset(b *testing.B) {
	res, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: 32, Seed: 1},
		Days:     2,
		Users:    12,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDataset(res.Trace); err != nil {
			b.Fatal(err)
		}
	}
}
