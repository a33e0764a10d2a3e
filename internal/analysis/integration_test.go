package analysis

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cdnconsistency/internal/stats"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/tracegen"
)

var (
	genOnce sync.Once
	genDS   *Dataset
	genErr  error
)

// genDataset builds a mid-sized synthetic crawl once for all integration
// tests in this file. The Dataset is read-only across tests.
func genDataset(t testing.TB) *Dataset {
	t.Helper()
	genOnce.Do(func() {
		res, err := tracegen.Generate(tracegen.Config{
			Topology: topology.Config{Servers: 150, Seed: 11},
			Days:     3,
			Users:    60,
			Seed:     11,
		})
		if err != nil {
			genErr = err
			return
		}
		genDS, genErr = NewDataset(res.Trace)
		if genErr != nil {
			return
		}
		// Warm the per-day episode cache so parallel readers never race.
		for day := 0; day < genDS.Days(); day++ {
			if _, err := genDS.PerServerInconsistency(day); err != nil {
				genErr = err
				return
			}
		}
	})
	if genErr != nil {
		t.Fatalf("building shared dataset: %v", genErr)
	}
	return genDS
}

// The Section 3.2 / Figure 3 shape: inconsistency exists, has a mean within
// the TTL-dominated range, and a tail beyond the TTL.
func TestIntegrationFig3Shape(t *testing.T) {
	d := genDataset(t)
	ri := d.RequestInconsistenciesAll()
	if ri.Total == 0 || len(ri.Lengths) == 0 {
		t.Fatal("no inconsistency measured")
	}
	mean := ri.Mean()
	if mean < 15 || mean > 60 {
		t.Errorf("mean inconsistency = %.1fs, want TTL-dominated range [15,60]", mean)
	}
	cdf, err := stats.NewCDF(ri.Lengths)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Max() <= 60 {
		t.Error("no tail beyond the TTL (absences should create one)")
	}
	// Some requests are stale for a substantial time (paper: 20.3% > 50s).
	over50 := 1 - cdf.At(50)
	if over50 < 0.02 {
		t.Errorf("fraction over 50s = %.3f, want a visible tail", over50)
	}
}

// Section 3.4.1 / Figure 6: the TTL inference recovers the generator's TTL
// and the uniform-theory RMSE prefers it over 80 s.
func TestIntegrationTTLInference(t *testing.T) {
	d := genDataset(t)
	ri := d.RequestInconsistenciesAll()
	got, err := InferTTL(ri.Lengths, 40*time.Second, 80*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got < 50*time.Second || got > 75*time.Second {
		t.Errorf("InferTTL = %v, want ~60s", got)
	}
	rmse60, err := TTLTheoryRMSE(ri.Lengths, 60*time.Second, 30)
	if err != nil {
		t.Fatal(err)
	}
	rmse80, err := TTLTheoryRMSE(ri.Lengths, 80*time.Second, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rmse60 >= rmse80 {
		t.Errorf("RMSE(60)=%.4f not below RMSE(80)=%.4f", rmse60, rmse80)
	}
}

// Section 3.4.2 / Figure 7: the provider is far more consistent than the CDN.
func TestIntegrationProviderNearlyConsistent(t *testing.T) {
	d := genDataset(t)
	server := d.RequestInconsistenciesAll()
	var provLengths []float64
	var provTotal int
	for day := 0; day < d.Days(); day++ {
		pi, err := d.ProviderInconsistencies(day)
		if err != nil {
			t.Fatal(err)
		}
		provLengths = append(provLengths, pi.Lengths...)
		provTotal += pi.Total
	}
	if provTotal == 0 {
		t.Fatal("no provider polls")
	}
	provMean := 0.0
	if len(provLengths) > 0 {
		provMean, _ = stats.Mean(provLengths)
	}
	if provMean >= server.Mean()/2 {
		t.Errorf("provider mean %.1fs not well below server mean %.1fs", provMean, server.Mean())
	}
}

// Section 3.4.3 / Figures 8-9: distance barely correlates; inter-ISP
// inconsistency exceeds intra-ISP on average.
func TestIntegrationDistanceAndISP(t *testing.T) {
	d := genDataset(t)
	_, corr, err := d.DistanceCorrelation(1000)
	if err != nil {
		t.Fatal(err)
	}
	if corr > 0.5 || corr < -0.5 {
		t.Errorf("distance correlation = %.2f, want weak (paper: 0.11)", corr)
	}

	clusters, err := d.ISPAnalysis(0)
	if err != nil {
		t.Fatal(err)
	}
	var interWins, total int
	for _, c := range clusters {
		if c.AvgIntra == 0 && c.AvgInter == 0 {
			continue
		}
		total++
		if c.AvgInter >= c.AvgIntra {
			interWins++
		}
	}
	if total == 0 {
		t.Fatal("no ISP clusters with data")
	}
	if frac := float64(interWins) / float64(total); frac < 0.7 {
		t.Errorf("inter >= intra in only %.0f%% of clusters, want most", frac*100)
	}
}

// Section 3.4.5 / Figure 10: absences exist with the documented length
// distribution and raise post-return inconsistency.
func TestIntegrationAbsenceEffect(t *testing.T) {
	d := genDataset(t)
	var all []Absence
	for day := 0; day < d.Days(); day++ {
		abs, err := d.Absences(day)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, abs...)
	}
	if len(all) == 0 {
		t.Fatal("no absences reconstructed")
	}
	// Post-return inconsistency should exceed the overall mean: the
	// server could not refresh while away.
	ri := d.RequestInconsistenciesAll()
	var retSum float64
	var retN int
	for _, a := range all {
		if a.ReturnI >= 0 && a.Length > 30*time.Second {
			retSum += a.ReturnI
			retN++
		}
	}
	if retN > 5 {
		retMean := retSum / float64(retN)
		if retMean <= ri.Mean() {
			t.Errorf("post-absence mean %.1fs not above overall mean %.1fs", retMean, ri.Mean())
		}
	}
}

// Section 3.5 / Figures 11-12: the synthetic CDN polls the provider directly,
// so the tree-existence battery must find no tree.
func TestIntegrationNoTree(t *testing.T) {
	d := genDataset(t)
	v, err := d.TreeExistence(d.CityClusters(), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.StaticTreeLikely {
		t.Errorf("static tree inferred on unicast trace: %+v", v)
	}
	if v.DynamicTreeLikely {
		t.Errorf("dynamic tree inferred on unicast trace: %+v", v)
	}
	// Under unicast polling a server's maximum catch-up is bounded by one
	// TTL plus lag, so nearly all maxima fall below 2*TTL (under a tree
	// most would exceed it).
	if v.FracUnder2TTL < 0.8 {
		t.Errorf("FracUnder2TTL = %.2f, want > 0.8", v.FracUnder2TTL)
	}
}

// Section 3.3 / Figure 4: users see redirections near the configured rate
// and short inconsistency runs.
func TestIntegrationUserView(t *testing.T) {
	d := genDataset(t)
	uv, err := d.UserView(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(uv.RedirectFractions) == 0 {
		t.Fatal("no user redirect data")
	}
	mean, _ := stats.Mean(uv.RedirectFractions)
	if mean < 0.05 || mean > 0.3 {
		t.Errorf("mean redirect fraction = %.2f, want ~0.15", mean)
	}
	if len(uv.ContinuousInconsistency) == 0 {
		t.Fatal("users never observed inconsistency")
	}
	// Observed self-inconsistency should be a small fraction.
	if uv.InconsistentObservationFrac <= 0 || uv.InconsistentObservationFrac > 0.5 {
		t.Errorf("inconsistent observation frac = %.3f", uv.InconsistentObservationFrac)
	}
	// Inconsistency runs are much shorter than consistency runs.
	incMean, _ := stats.Mean(uv.ContinuousInconsistency)
	conMean, _ := stats.Mean(uv.ContinuousConsistency)
	if incMean >= conMean {
		t.Errorf("inconsistency runs (%.0fs) not shorter than consistency runs (%.0fs)", incMean, conMean)
	}
}

// Figure 4(e): slower polling lengthens observed inconsistency runs.
func TestIntegrationResampledRunsGrow(t *testing.T) {
	d := genDataset(t)
	fast, err := d.ResampledInconsistencyRuns(0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := d.ResampledInconsistencyRuns(0, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) == 0 {
		t.Fatal("no runs at 10s cadence")
	}
	if len(slow) == 0 {
		t.Skip("no runs observed at 60s cadence in this draw")
	}
	fMean, _ := stats.Mean(fast)
	sMean, _ := stats.Mean(slow)
	if sMean < fMean {
		t.Errorf("60s-cadence run mean %.0fs below 10s-cadence %.0fs", sMean, fMean)
	}
}

// Figure 4(b): a steady fraction of servers is inconsistent at any instant.
func TestIntegrationInconsistentServerFraction(t *testing.T) {
	d := genDataset(t)
	for day := 0; day < d.Days(); day++ {
		frac, err := d.InconsistentServerFraction(day)
		if err != nil {
			t.Fatal(err)
		}
		if frac <= 0 || frac >= 1 {
			t.Errorf("day %d fraction = %.3f, want in (0,1)", day, frac)
		}
	}
}

// The executive summary ties the whole Section-3 battery together.
func TestIntegrationSummarize(t *testing.T) {
	d := genDataset(t)
	s, err := d.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Servers != 150 || s.Days != 3 {
		t.Errorf("sizes = %d servers / %d days", s.Servers, s.Days)
	}
	if s.MeanInconsistency <= 0 {
		t.Error("no inconsistency in summary")
	}
	if s.InferredTTL < 50*time.Second || s.InferredTTL > 80*time.Second {
		t.Errorf("inferred TTL = %v", s.InferredTTL)
	}
	if s.Verdict.StaticTreeLikely || s.Verdict.DynamicTreeLikely {
		t.Errorf("verdict = %+v", s.Verdict)
	}
	out := s.String()
	for _, want := range []string{"inferred TTL", "unicast TTL polling", "provider"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
