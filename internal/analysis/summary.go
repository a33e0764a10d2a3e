package analysis

import (
	"fmt"
	"strings"
	"time"

	"cdnconsistency/internal/stats"
)

// Section3Summary is the executive view of a whole crawl: the numbers the
// paper's Section 3.6 summarizes, computed in one pass.
type Section3Summary struct {
	Days    int
	Servers int

	// Inconsistency lengths (all days, alpha/beta method).
	MeanInconsistency float64
	FracUnder10s      float64
	FracOver50s       float64

	// TTL inference.
	InferredTTL time.Duration
	TTLShare    float64

	// Provider health.
	ProviderMean float64

	// Distance and redirects.
	DistanceCorrelation float64
	MeanRedirectFrac    float64

	// Tree verdict.
	Verdict TreeVerdict
}

// Summarize runs the full Section-3 battery. Clusters for the tree tests
// are the same-city groups.
func (d *Dataset) Summarize() (*Section3Summary, error) {
	out := &Section3Summary{Days: d.Days(), Servers: len(d.Trace.Servers)}

	ri := d.RequestInconsistenciesAll()
	if len(ri.Lengths) == 0 {
		return nil, fmt.Errorf("analysis: no inconsistency lengths in trace")
	}
	out.MeanInconsistency = ri.Mean()
	cdf, err := stats.NewCDF(ri.Lengths)
	if err != nil {
		return nil, err
	}
	out.FracUnder10s = cdf.At(10)
	out.FracOver50s = 1 - cdf.At(50)

	ttl, err := InferTTL(ri.Lengths, 40*time.Second, 80*time.Second, 5*time.Second)
	if err != nil {
		return nil, err
	}
	out.InferredTTL = ttl
	if share, err := TTLShare(ri.Lengths, ttl); err == nil {
		out.TTLShare = share
	}

	var provLengths []float64
	for day := 0; day < d.Days(); day++ {
		pi, err := d.ProviderInconsistencies(day)
		if err != nil {
			return nil, err
		}
		provLengths = append(provLengths, pi.Lengths...)
	}
	if len(provLengths) > 0 {
		out.ProviderMean, _ = stats.Mean(provLengths)
	}

	if _, corr, err := d.DistanceCorrelation(1000); err == nil {
		out.DistanceCorrelation = corr
	}

	if uv, err := d.UserView(0); err == nil && len(uv.RedirectFractions) > 0 {
		out.MeanRedirectFrac, _ = stats.Mean(uv.RedirectFractions)
	}

	verdict, err := d.TreeExistence(d.CityClusters(), ttl)
	if err != nil {
		return nil, err
	}
	out.Verdict = verdict
	return out, nil
}

// String renders the summary as the paper's Section 3.6 style bullet list.
func (s *Section3Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crawl: %d servers over %d days\n", s.Servers, s.Days)
	fmt.Fprintf(&b, "inconsistency: mean %.1fs (%.1f%% under 10s, %.1f%% over 50s)\n",
		s.MeanInconsistency, 100*s.FracUnder10s, 100*s.FracOver50s)
	fmt.Fprintf(&b, "inferred TTL: %v, explaining ~%.0f%% of mean inconsistency\n",
		s.InferredTTL, 100*s.TTLShare)
	fmt.Fprintf(&b, "provider: mean inconsistency %.1fs (negligible)\n", s.ProviderMean)
	fmt.Fprintf(&b, "distance correlation: r = %+.2f (weak)\n", s.DistanceCorrelation)
	fmt.Fprintf(&b, "user redirects: %.1f%% of visits\n", 100*s.MeanRedirectFrac)
	fmt.Fprintf(&b, "multicast tree: static=%v dynamic=%v -> %s\n",
		s.Verdict.StaticTreeLikely, s.Verdict.DynamicTreeLikely, s.conclusion())
	return b.String()
}

func (s *Section3Summary) conclusion() string {
	if !s.Verdict.StaticTreeLikely && !s.Verdict.DynamicTreeLikely {
		return "unicast TTL polling (the paper's Section 3.6 conclusion)"
	}
	return "a distribution tree is plausible"
}
