package traceimport

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
)

// genConfig is the canonical metamorphic configuration: a known tracegen
// setup whose parameters Infer must recover within documented tolerances.
func genConfig(servers int, seed int64) tracegen.Config {
	return tracegen.Config{
		Topology: topology.Config{Servers: servers, Seed: seed},
		Days:     1,
		Users:    20,
		Seed:     seed,
	}
}

func generate(t *testing.T, cfg tracegen.Config) *tracegen.Result {
	t.Helper()
	res, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatalf("tracegen.Generate: %v", err)
	}
	return res
}

// TestInferRoundTrip is the metamorphic suite: generate a trace from a
// known configuration, infer a bundle, and check each estimate against the
// generating parameter.
//
// Tolerances, and why:
//   - server count, site count, user count, poll interval: exact — they
//     are directly observable in the records.
//   - server TTL: ±1 poll interval — version changes are only observable
//     on the poll grid, so the spacing estimate is quantized.
//   - redirect fraction: ±0.02 of 0.15 — a binomial estimate over ~17k
//     user-visit transitions (collision-corrected).
//   - absence windows: [0.25, 1.6] x servers x days x 0.4 — the draw is
//     Poisson, and windows shorter than the poll interval can fall
//     between polls entirely, so the detected count trails the drawn one.
func TestInferRoundTrip(t *testing.T) {
	for _, servers := range []int{24, 60} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("servers=%d/seed=%d", servers, seed), func(t *testing.T) {
				cfg := genConfig(servers, seed)
				res := generate(t, cfg)
				b, err := Infer(res.Trace)
				if err != nil {
					t.Fatalf("Infer: %v", err)
				}
				checkBundle(t, cfg, res, b, 60*time.Second)
			})
		}
	}
}

// TestInferRecoversNonDefaultTTL repeats the round trip with a TTL that is
// not a multiple of the poll interval, so the quantization tolerance is
// actually exercised.
func TestInferRecoversNonDefaultTTL(t *testing.T) {
	cfg := genConfig(24, 7)
	cfg.ServerTTL = 45 * time.Second
	res := generate(t, cfg)
	b, err := Infer(res.Trace)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	checkBundle(t, cfg, res, b, 45*time.Second)
}

func checkBundle(t *testing.T, cfg tracegen.Config, res *tracegen.Result, b *Bundle, wantTTL time.Duration) {
	t.Helper()
	if err := b.Validate(); err != nil {
		t.Fatalf("inferred bundle invalid: %v", err)
	}
	s := b.Summary
	if s.Servers != cfg.Topology.Servers {
		t.Errorf("servers %d, want %d", s.Servers, cfg.Topology.Servers)
	}
	if want := len(res.Topo.LocationClusters()); s.Sites != want {
		t.Errorf("sites %d, want %d", s.Sites, want)
	}
	if s.Users != cfg.Users {
		t.Errorf("users %d, want %d", s.Users, cfg.Users)
	}
	if got := b.Population.TotalUsers(); got != cfg.Users {
		t.Errorf("population holds %d users, want %d", got, cfg.Users)
	}
	if s.Days != cfg.Days {
		t.Errorf("days %d, want %d", s.Days, cfg.Days)
	}
	if want := 10 * time.Second; s.PollInterval.D() != want {
		t.Errorf("poll interval %v, want %v", s.PollInterval.D(), want)
	}
	if diff := s.ServerTTL.D() - wantTTL; diff < -10*time.Second || diff > 10*time.Second {
		t.Errorf("server TTL %v, want %v +/- one poll interval", s.ServerTTL.D(), wantTTL)
	}
	if math.Abs(s.RedirectFrac-0.15) > 0.02 {
		t.Errorf("redirect frac %v, want 0.15 +/- 0.02", s.RedirectFrac)
	}
	expectedAbsences := float64(cfg.Topology.Servers*cfg.Days) * 0.4
	if lo, hi := 0.25*expectedAbsences, 1.6*expectedAbsences; float64(s.Absences) < lo || float64(s.Absences) > hi {
		t.Errorf("absence runs %d outside [%v, %v]", s.Absences, lo, hi)
	}
	// Updates per day: the generator draws ~mean-25.5s gaps over 130 min
	// of play, so ~250-360 updates; the daily max snapshot tracks it.
	if s.UpdatesPerDay < 200 || s.UpdatesPerDay > 450 {
		t.Errorf("updates per day %v outside the generator's plausible range", s.UpdatesPerDay)
	}
	// Provider vantage: the fit must land near the generator's default
	// provider location (Atlanta). 150 km is well under the inter-site
	// spacing, so the fit is meaningfully localized.
	got := geo.Point{Lat: b.ServerMap.Provider.Lat, Lon: b.ServerMap.Provider.Lon}
	want := geo.Point{Lat: 33.749, Lon: -84.388}
	if d := geo.DistanceKm(got, want); d > 150 {
		t.Errorf("provider vantage %v is %.0f km from the true location", got, d)
	}
	// The bundle must materialize into runnable options.
	if _, err := b.Options(); err != nil {
		t.Errorf("Options: %v", err)
	}
}

// TestInferDeterministic pins that the same trace yields the same bundle
// bytes — map iteration anywhere in the estimators would break this.
func TestInferDeterministic(t *testing.T) {
	res := generate(t, genConfig(24, 5))
	first, err := Infer(res.Trace)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	firstJSON, err := first.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for i := 0; i < 3; i++ {
		again, err := Infer(res.Trace)
		if err != nil {
			t.Fatalf("Infer #%d: %v", i, err)
		}
		againJSON, err := again.Marshal()
		if err != nil {
			t.Fatalf("Marshal #%d: %v", i, err)
		}
		if string(firstJSON) != string(againJSON) {
			t.Fatalf("Infer is not deterministic (run %d):\n%s\nvs\n%s", i, firstJSON, againJSON)
		}
	}
	// Record order is no input either: a shuffled copy infers the same
	// bytes, and Infer leaves its caller's records where they were.
	shuffled := *res.Trace
	shuffled.Records = append([]trace.PollRecord(nil), res.Trace.Records...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Records), func(i, j int) {
		shuffled.Records[i], shuffled.Records[j] = shuffled.Records[j], shuffled.Records[i]
	})
	before := append([]trace.PollRecord(nil), shuffled.Records...)
	again, err := Infer(&shuffled)
	if err != nil {
		t.Fatalf("Infer(shuffled): %v", err)
	}
	if againJSON, _ := again.Marshal(); string(againJSON) != string(firstJSON) {
		t.Fatalf("a shuffled trace infers a different bundle:\n%s\nvs\n%s", againJSON, firstJSON)
	}
	if !reflect.DeepEqual(shuffled.Records, before) {
		t.Fatal("Infer moved its caller's records")
	}
}

// TestInferAgreesAcrossFormats pins that a trace imported via the access-log
// flavor yields the identical bundle to the JSONL original: the summary has
// no source field precisely so the two paths converge.
func TestInferAgreesAcrossFormats(t *testing.T) {
	res := generate(t, genConfig(24, 11))
	fromJSONL, err := Infer(res.Trace)
	if err != nil {
		t.Fatalf("Infer(jsonl): %v", err)
	}
	tr := *res.Trace
	tr.SortRecords()
	var logBuf bytes.Buffer
	if err := trace.WriteAccessLog(&logBuf, &tr); err != nil {
		t.Fatalf("WriteAccessLog: %v", err)
	}
	reparsed, format, err := ReadTrace(&logBuf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if format != FormatAccessLog {
		t.Fatalf("sniffed format %q, want %q", format, FormatAccessLog)
	}
	fromLog, err := Infer(reparsed)
	if err != nil {
		t.Fatalf("Infer(accesslog): %v", err)
	}
	a, _ := fromJSONL.Marshal()
	b, _ := fromLog.Marshal()
	if string(a) != string(b) {
		t.Fatalf("bundle differs across trace formats:\n%s\nvs\n%s", a, b)
	}
}

func TestInferRejectsDegenerateTraces(t *testing.T) {
	res := generate(t, genConfig(24, 3))
	empty := *res.Trace
	empty.Servers = nil
	empty.Records = nil
	if _, err := Infer(&empty); err == nil {
		t.Error("Infer accepted a trace with no servers")
	}
	flat := *res.Trace
	flat.Records = append([]trace.PollRecord(nil), flat.Records...)
	for i := range flat.Records {
		flat.Records[i].Snapshot = 0
		flat.Records[i].Absent = false
	}
	if _, err := Infer(&flat); err == nil {
		t.Error("Infer accepted a trace with no content versions")
	}
	if _, err := Infer(nil); err == nil {
		t.Error("Infer accepted a nil trace")
	}
	// Constant non-zero snapshots carry a version count but no observable
	// version changes, so the TTL estimator has nothing to work with.
	frozen := *res.Trace
	frozen.Records = append([]trace.PollRecord(nil), frozen.Records...)
	for i := range frozen.Records {
		if !frozen.Records[i].Absent {
			frozen.Records[i].Snapshot = 5
		}
	}
	if _, err := Infer(&frozen); err == nil || !strings.Contains(err.Error(), "server TTL") {
		t.Errorf("Infer on change-free trace: %v, want a TTL inference error", err)
	}
	// A record cannot be both a provider poll and a user view, least of
	// all one naming no crawled server.
	both := *res.Trace
	both.Records = append(append([]trace.PollRecord(nil), both.Records...), trace.PollRecord{
		Server: "ghost", Poller: "u9", At: time.Second, Snapshot: 1, Provider: true, UserView: true,
	})
	if _, err := Infer(&both); err == nil || !strings.Contains(err.Error(), "provider poll and a user view") {
		t.Errorf("Infer on a provider user view: %v, want a validation error", err)
	}
}

// BenchmarkInfer times bundle inference on a crawl of perfbench
// crawl-replay's size: 32 servers, 2 days, 12 users.
func BenchmarkInfer(b *testing.B) {
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
		if _, err := Infer(res.Trace); err != nil {
			b.Fatal(err)
		}
	}
}
