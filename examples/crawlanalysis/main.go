// Crawl analysis: the paper's Section-3 measurement pipeline end to end.
// Generate a synthetic crawl of a TTL-based CDN (the proprietary trace's
// stand-in), then — pretending we do not know how the CDN works — recover
// its mechanism from the polled snapshots alone: the inconsistency
// distribution, the TTL in use, the cause breakdown, and the verdict that
// no multicast tree distributes the updates.
package main

import (
	"fmt"
	"log"
	"time"

	"cdnconsistency/internal/analysis"
	"cdnconsistency/internal/stats"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/tracegen"
)

func main() {
	// Crawl 200 servers for 2 days, polling every 10 s, with 50 user
	// vantage points — a scaled-down version of the paper's 3000-server,
	// 15-day crawl.
	gen, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: 200, Seed: 21},
		Days:     2,
		Users:    50,
		Seed:     21,
	})
	if err != nil {
		log.Fatalf("generate crawl: %v", err)
	}
	ds, err := analysis.NewDataset(gen.Trace)
	if err != nil {
		log.Fatalf("index crawl: %v", err)
	}

	// 1. How stale is the CDN? (Figure 3)
	ri := ds.RequestInconsistenciesAll()
	cdf, err := stats.NewCDF(ri.Lengths)
	if err != nil {
		log.Fatalf("cdf: %v", err)
	}
	fmt.Printf("inconsistency: mean %.1fs, %0.1f%% under 10s, %0.1f%% over 50s\n",
		ri.Mean(), 100*cdf.At(10), 100*(1-cdf.At(50)))

	// 2. What TTL does the CDN use? (Figure 6)
	ttl, err := analysis.InferTTL(ri.Lengths, 40*time.Second, 80*time.Second, 5*time.Second)
	if err != nil {
		log.Fatalf("infer ttl: %v", err)
	}
	share, _ := analysis.TTLShare(ri.Lengths, ttl)
	fmt.Printf("inferred TTL: %v (explains ~%.0f%% of mean inconsistency)\n", ttl, 100*share)

	// 3. Is the provider to blame? (Figure 7)
	prov, err := ds.ProviderInconsistencies(0)
	if err != nil {
		log.Fatalf("provider: %v", err)
	}
	fmt.Printf("provider inconsistency: mean %.1fs over %d polls — negligible\n",
		prov.Mean(), prov.Total)

	// 4. Does distance matter? (Figure 8)
	_, corr, err := ds.DistanceCorrelation(1000)
	if err != nil {
		log.Fatalf("distance: %v", err)
	}
	fmt.Printf("distance vs consistency correlation: r = %+.2f — weak\n", corr)

	// 5. Is there a multicast tree? (Figures 11-12)
	verdict, err := ds.TreeExistence(ds.CityClusters(), ttl)
	if err != nil {
		log.Fatalf("tree test: %v", err)
	}
	fmt.Printf("tree existence: static=%v dynamic=%v (rank spread %.2f, %.0f%% of maxima under 2*TTL)\n",
		verdict.StaticTreeLikely, verdict.DynamicTreeLikely,
		verdict.ServerRankSpread, 100*verdict.FracUnder2TTL)
	fmt.Println("conclusion: the CDN polls the provider directly over unicast with a fixed TTL,")
	fmt.Println("matching the paper's Section 3.6 finding.")
}
