package analysis

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
)

// churnTrace builds a 3-day trace over 4 servers where the inconsistency
// ranking flips every day (no tree) — each day a different server is the
// stale one.
func churnTrace() *trace.Trace {
	tr := &trace.Trace{
		Meta: trace.Meta{Description: "churn", Days: 3,
			PollInterval: 10 * time.Second, DayLength: 120 * time.Second,
			ServerTTL: 60 * time.Second},
	}
	for i := 0; i < 4; i++ {
		tr.Servers = append(tr.Servers, trace.ServerInfo{ID: fmt.Sprintf("s%d", i), ISP: i % 2, City: i % 2})
	}
	for day := 0; day < 3; day++ {
		staleServer := fmt.Sprintf("s%d", day%4)
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("s%d", i)
			for _, sec := range []int{10, 20, 30, 40, 50, 60} {
				snap := sec / 10 // fresh servers advance each poll
				if id == staleServer && sec > 10 {
					snap = 1 // the stale server is stuck on snapshot 1
				}
				tr.Records = append(tr.Records, trace.PollRecord{
					Day: day, Server: id, Poller: "p-" + id,
					At: time.Duration(sec) * time.Second, Snapshot: snap,
				})
			}
		}
	}
	return tr
}

// layeredTrace builds a 3-day trace where s0 is always fresh and s3 always
// most stale — the signature of a static tree.
func layeredTrace() *trace.Trace {
	tr := &trace.Trace{
		Meta: trace.Meta{Description: "layered", Days: 3,
			PollInterval: 10 * time.Second, DayLength: 120 * time.Second,
			ServerTTL: 60 * time.Second},
	}
	for i := 0; i < 4; i++ {
		tr.Servers = append(tr.Servers, trace.ServerInfo{ID: fmt.Sprintf("s%d", i), ISP: 0, City: 0})
	}
	for day := 0; day < 3; day++ {
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("s%d", i)
			for _, sec := range []int{10, 20, 30, 40, 50, 60} {
				// Server i lags i snapshots behind.
				snap := sec/10 - i
				if snap < 1 {
					snap = 1
				}
				tr.Records = append(tr.Records, trace.PollRecord{
					Day: day, Server: id, Poller: "p-" + id,
					At: time.Duration(sec) * time.Second, Snapshot: snap,
				})
			}
		}
	}
	return tr
}

// serverIDs returns the dense ids of the named servers.
func serverIDs(d *Dataset, names ...string) []int {
	var out []int
	for _, n := range names {
		out = append(out, d.ServerID(n))
	}
	return out
}

func TestClusterDailyInconsistency(t *testing.T) {
	d := mustDataset(t, churnTrace())
	daily, err := d.ClusterDailyInconsistency(d.CityClusters())
	if err != nil {
		t.Fatal(err)
	}
	if len(daily) != 2 {
		t.Fatalf("clusters = %d, want 2", len(daily))
	}
	for _, cd := range daily {
		if len(cd.ByDay) != 3 {
			t.Fatalf("cluster %s days = %d", cd.Key, len(cd.ByDay))
		}
		if cd.Min > cd.Max {
			t.Errorf("cluster %s min %v > max %v", cd.Key, cd.Min, cd.Max)
		}
	}
	if _, err := d.ClusterDailyInconsistency(nil); err == nil {
		t.Error("empty clusters accepted")
	}
}

// clusterDailyByScan is the direct definition ClusterDailyInconsistency
// replaced: each cluster rescans every record of each day and averages the
// inconsistency of its members' crawler records.
func clusterDailyByScan(d *Dataset, clusters []Cluster) []ClusterDaily {
	var out []ClusterDaily
	for _, c := range clusters {
		cd := ClusterDaily{Key: c.Key}
		for day := 0; day < d.Days(); day++ {
			var sum float64
			var n int
			for p := range d.Trace.Records {
				r := &d.Trace.Records[p]
				if r.Day != day || r.Provider || r.UserView || !slices.Contains(c.Members, d.ix.ServerID(r.Server)) {
					continue
				}
				l, ok := d.inconsistencyOf(day, int32(p))
				if !ok {
					continue
				}
				sum += l
				n++
			}
			avg := 0.0
			if n > 0 {
				avg = sum / float64(n)
			}
			cd.ByDay = append(cd.ByDay, avg)
			if day == 0 || avg < cd.Min {
				cd.Min = avg
			}
			if day == 0 || avg > cd.Max {
				cd.Max = avg
			}
		}
		out = append(out, cd)
	}
	return out
}

// TestClusterDailyMatchesPerClusterScan checks the one-pass cluster tables
// against the per-cluster scan on a generated crawl: city and ISP clusters
// (which overlap), a cluster with a repeated member and an empty cluster.
// Every average must be bit-identical.
func TestClusterDailyMatchesPerClusterScan(t *testing.T) {
	d, _ := crawlScopes(t)
	last := len(d.ix.Servers) - 1
	clusters := append(crawlClusters(d), Cluster{Key: "dup", Members: []int{0, last, 0}}, Cluster{Key: "empty"})
	got, err := d.ClusterDailyInconsistency(clusters)
	if err != nil {
		t.Fatal(err)
	}
	want := clusterDailyByScan(d, clusters)
	if len(got) != len(want) {
		t.Fatalf("clusters = %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Min != w.Min || g.Max != w.Max || len(g.ByDay) != len(w.ByDay) {
			t.Fatalf("cluster %d: one pass %+v, per-cluster scan %+v", i, g, w)
		}
		for day := range w.ByDay {
			if g.ByDay[day] != w.ByDay[day] {
				t.Fatalf("cluster %s day %d: one pass %v, per-cluster scan %v", w.Key, day, g.ByDay[day], w.ByDay[day])
			}
		}
	}
	if got[0].Max == 0 {
		t.Fatal("crawl too small: the first cluster never saw inconsistency")
	}
}

// BenchmarkClusterDailyInconsistency times the Fig. 11 cluster tables on a
// generated crawl's city clusters, at the crawl-replay size and at 200
// servers.
func BenchmarkClusterDailyInconsistency(b *testing.B) {
	for _, servers := range []int{32, 200} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			res, err := tracegen.Generate(tracegen.Config{
				Topology: topology.Config{Servers: servers, Seed: 1},
				Days:     2,
				Users:    12,
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			d, err := NewDataset(res.Trace)
			if err != nil {
				b.Fatal(err)
			}
			clusters := d.CityClusters()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.ClusterDailyInconsistency(clusters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestServerRankStabilityChurn(t *testing.T) {
	d := mustDataset(t, churnTrace())
	rs, err := d.ServerRankStability(serverIDs(d, "s3", "s1", "s0", "s2"))
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, s := range rs.Entities {
		labels = append(labels, d.Servers()[s].ID)
	}
	if got := strings.Join(labels, " "); got != "s0 s1 s2 s3" {
		t.Errorf("entities = %s, want s0 s1 s2 s3", got)
	}
	if len(rs.Ranks) != 3 {
		t.Fatalf("rank days = %d", len(rs.Ranks))
	}
	if rs.MeanSpread <= 0.1 {
		t.Errorf("churny trace spread = %v, want large", rs.MeanSpread)
	}
}

func TestServerRankStabilityLayered(t *testing.T) {
	d := mustDataset(t, layeredTrace())
	rs, err := d.ServerRankStability(serverIDs(d, "s0", "s1", "s2", "s3"))
	if err != nil {
		t.Fatal(err)
	}
	if rs.MeanSpread != 0 {
		t.Errorf("layered trace spread = %v, want 0", rs.MeanSpread)
	}
	if _, err := d.ServerRankStability(serverIDs(d, "s0")); err == nil {
		t.Error("single server accepted")
	}
}

func TestMaxInconsistencyTest(t *testing.T) {
	d := mustDataset(t, churnTrace())
	res, err := d.MaxInconsistencyTest(0, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maxima) != 4 {
		t.Fatalf("maxima = %v, want 4 servers", res.Maxima)
	}
	// The stale server reaches 40s (<60): all under TTL.
	if res.FracUnderTTL != 1 {
		t.Errorf("FracUnderTTL = %v, want 1", res.FracUnderTTL)
	}
	cdf, err := res.MaximaCDF()
	if err != nil {
		t.Fatal(err)
	}
	if cdf.N() != 4 {
		t.Errorf("cdf N = %d", cdf.N())
	}
	if _, err := d.MaxInconsistencyTest(9, time.Minute); err == nil {
		t.Error("bad day accepted")
	}
}

func TestMaxInconsistencyExcludesAbsentServers(t *testing.T) {
	tr := churnTrace()
	tr.Records = append(tr.Records, trace.PollRecord{
		Day: 0, Server: "s0", Poller: "p-s0", At: 70 * time.Second, Absent: true,
	})
	d := mustDataset(t, tr)
	res, err := d.MaxInconsistencyTest(0, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maxima) != 3 {
		t.Errorf("maxima = %d, want 3 (s0 excluded)", len(res.Maxima))
	}
}

func TestMaxInconsistencyTTLFallback(t *testing.T) {
	d := mustDataset(t, churnTrace())
	if _, err := d.MaxInconsistencyTest(0, 0); err != nil {
		t.Errorf("meta TTL fallback failed: %v", err)
	}
	tr := churnTrace()
	tr.Meta.ServerTTL = 0
	d2 := mustDataset(t, tr)
	if _, err := d2.MaxInconsistencyTest(0, 0); err == nil {
		t.Error("unknown TTL accepted")
	}
}

func TestTreeExistenceVerdicts(t *testing.T) {
	churn := mustDataset(t, churnTrace())
	v, err := churn.TreeExistence(churn.CityClusters(), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.StaticTreeLikely {
		t.Error("churny trace classified as static tree")
	}
	if v.DynamicTreeLikely {
		t.Error("churny trace classified as dynamic tree (maxima under TTL)")
	}

	layered := mustDataset(t, layeredTrace())
	lv, err := layered.TreeExistence(layered.CityClusters(), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if lv.ServerRankSpread != 0 {
		t.Errorf("layered spread = %v, want 0", lv.ServerRankSpread)
	}
	if !lv.StaticTreeLikely {
		t.Error("layered trace not classified as static tree")
	}
}

// TestLargestClusterTieBreak pins the deterministic pick among equally large
// clusters: the smallest key wins on every call, and TreeExistence's server
// rank spread, computed inside that cluster, repeats exactly.
func TestLargestClusterTieBreak(t *testing.T) {
	clusters := []Cluster{{"c", []int{4, 5}}, {"a", []int{0, 1}}, {"b", []int{2, 3}}, {"d", []int{6}}}
	if got := LargestCluster(clusters); !reflect.DeepEqual(got, clusters[1].Members) {
		t.Fatalf("LargestCluster = %v, want cluster a %v", got, clusters[1].Members)
	}
	if got := LargestCluster([]Cluster{{Key: "a"}}); got != nil {
		t.Errorf("all-empty clusters gave %v, want nil", got)
	}

	// churnTrace's two city clusters tie at two servers. Making the stale
	// server alternate inside city-0 only gives the two different spreads,
	// so a map-order pick would flip the verdict between calls.
	tr := churnTrace()
	for i := range tr.Records {
		r := &tr.Records[i]
		stale := []string{"s0", "s2", "s0"}[r.Day]
		r.Snapshot = int(r.At / (10 * time.Second))
		if r.Server == stale && r.At > 10*time.Second {
			r.Snapshot = 1
		}
	}
	d := mustDataset(t, tr)
	tied := d.CityClusters()
	want, err := d.ServerRankStability(tied[0].Members)
	if err != nil {
		t.Fatal(err)
	}
	other, err := d.ServerRankStability(tied[1].Members)
	if err != nil {
		t.Fatal(err)
	}
	if want.MeanSpread == other.MeanSpread {
		t.Fatalf("fixture clusters have equal spread %v; the tie would not show", want.MeanSpread)
	}
	for i := 0; i < 50; i++ {
		v, err := d.TreeExistence(tied, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v.ServerRankSpread != want.MeanSpread {
			t.Fatalf("call %d: ServerRankSpread = %v, want city-0's %v", i, v.ServerRankSpread, want.MeanSpread)
		}
	}
}

func TestClusterRankSpreadStable(t *testing.T) {
	daily := []ClusterDaily{
		{Key: "a", ByDay: []float64{1, 1, 1}},
		{Key: "b", ByDay: []float64{2, 2, 2}},
		{Key: "c", ByDay: []float64{3, 3, 3}},
	}
	if got := clusterRankSpread(daily); got != 0 {
		t.Errorf("stable spread = %v, want 0", got)
	}
	flipped := []ClusterDaily{
		{Key: "a", ByDay: []float64{1, 3}},
		{Key: "b", ByDay: []float64{2, 2}},
		{Key: "c", ByDay: []float64{3, 1}},
	}
	if got := clusterRankSpread(flipped); got <= 0 {
		t.Errorf("flipped spread = %v, want > 0", got)
	}
	if got := clusterRankSpread(nil); got != 0 {
		t.Errorf("empty spread = %v", got)
	}
}

func TestKendallTauInRankStability(t *testing.T) {
	layered := mustDataset(t, layeredTrace())
	rs, err := layered.ServerRankStability(serverIDs(layered, "s0", "s1", "s2", "s3"))
	if err != nil {
		t.Fatal(err)
	}
	if rs.MeanKendallTau != 1 {
		t.Errorf("layered tau = %v, want 1", rs.MeanKendallTau)
	}
	churn := mustDataset(t, churnTrace())
	rs, err = churn.ServerRankStability(serverIDs(churn, "s0", "s1", "s2", "s3"))
	if err != nil {
		t.Fatal(err)
	}
	if rs.MeanKendallTau > 0.6 {
		t.Errorf("churny tau = %v, want low", rs.MeanKendallTau)
	}
}
