package plan

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/workload"
)

// weightedPercentile is the one-rank form of weightedPercentiles.
func weightedPercentile(xs []float64, weights []int, p float64) float64 {
	return weightedPercentiles(xs, weights, []float64{p})[0]
}

// sortPerRankPercentile is the reference: a copy and a sort per rank, then
// a cumulative scan for the nearest rank.
func sortPerRankPercentile(xs []float64, weights []int, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	type wv struct {
		v float64
		w int
	}
	pairs := make([]wv, len(xs))
	var total int64
	for i, x := range xs {
		w := 1
		if weights != nil && i < len(weights) {
			w = weights[i]
		}
		pairs[i] = wv{v: x, w: w}
		total += int64(w)
	}
	if total <= 0 {
		return 0
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
	rank := int64(float64(total) * p / 100)
	if float64(rank) < float64(total)*p/100 {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for _, pr := range pairs {
		cum += int64(pr.w)
		if cum >= rank {
			return pr.v
		}
	}
	return pairs[len(pairs)-1].v
}

// The selection must give every percentile the sort-per-rank reference
// gives: on weighted and unweighted inputs full of tied values, with
// zero-weight entries mixed in, on all-equal values, on the 1-, 2- and
// 3-entry edges, and on series long enough (up to 30,000 entries) that each
// rank takes many partition rounds.
func TestWeightedPercentilesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ranks := []float64{0, 1, 50, 95, 99, 100}
	for trial := 0; trial < 600; trial++ {
		n, kind := 1+rng.Intn(60), trial%4
		switch {
		case trial%50 == 0:
			n = 1 + trial%3
		case trial%20 >= 18:
			n, kind = 1+rng.Intn(30_000), trial/20%4
			if trial%100 >= 98 {
				n = 30_000
			}
		}
		distinct := 8
		switch kind {
		case 2:
			distinct = 1 // all-equal values
		case 3:
			distinct = 1 << 20 // few ties
		}
		xs := make([]float64, n)
		var weights []int
		if trial%2 == 1 {
			weights = make([]int, n)
		}
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct)) / 4
			if weights != nil {
				weights[i] = 1 + rng.Intn(40)
				if trial/4%2 == 0 && rng.Intn(3) == 0 {
					weights[i] = 0
				}
			}
		}
		checkPercentiles(t, xs, weights, ranks)
	}
}

// checkPercentiles holds weightedPercentiles at ranks to the sort-per-rank
// reference.
func checkPercentiles(t *testing.T, xs []float64, weights []int, ranks []float64) {
	t.Helper()
	got := weightedPercentiles(xs, weights, ranks)
	for k, p := range ranks {
		if want := sortPerRankPercentile(xs, weights, p); got[k] != want {
			head := min(len(xs), 20)
			t.Fatalf("n=%d p%v: got %v, reference %v (xs from %v, weights from %v)",
				len(xs), p, got[k], want, xs[:head], weights[:min(len(weights), head)])
		}
	}
}

// Ranks in any order, and repeated ones, give what each gives alone.
func TestWeightedPercentilesAnyRankOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		xs := make([]float64, n)
		weights := make([]int, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(20))
			weights[i] = rng.Intn(5)
		}
		ranks := make([]float64, 1+rng.Intn(6))
		for k := range ranks {
			ranks[k] = float64(rng.Intn(101))
		}
		checkPercentiles(t, xs, weights, ranks)
	}
}

// A later, higher rank searches only the entries at or above the previous
// answer: selecting p50 then p99 leaves the entries below the p50 answer
// exactly where selecting p50 alone puts them.
func TestLaterRanksSearchAboveThePreviousAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pairs := make([]weightedValue, 10_000)
	var total int64
	for i := range pairs {
		pairs[i] = weightedValue{v: float64(rng.Intn(1000)), w: int64(1 + rng.Intn(9))}
		total += pairs[i].w
	}
	one := slices.Clone(pairs)
	out := make([]float64, 1)
	selectRanks(one, total, []float64{50}, out)
	below := 0
	for below < len(one) && one[below].v < out[0] {
		below++
	}
	if below == 0 {
		t.Fatal("p50 answer has no entries below it")
	}
	two := slices.Clone(pairs)
	selectRanks(two, total, []float64{50, 99}, make([]float64, 2))
	if !slices.Equal(one[:below], two[:below]) {
		t.Fatal("selecting p99 after p50 reordered the entries below the p50 answer")
	}
}

// FuzzWeightedPercentiles holds the selection to the sort-per-rank reference
// on arbitrary series: each 3-byte group of data is one entry (a value byte,
// so ties are common, and two weight bytes, zero included), the first byte
// picks unit weights when odd, and ranks past the fixed ones are drawn from
// the seed.
func FuzzWeightedPercentiles(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 3, 0, 2, 0}, int64(1))
	f.Add([]byte{1, 5, 0, 0, 5, 0, 0, 5, 0, 0}, int64(2))
	f.Add(bytes.Repeat([]byte{0, 7, 1, 0}, 64), int64(3))
	f.Add([]byte{}, int64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		unit := data[0]%2 == 1
		data = data[1:]
		n := len(data) / 3
		xs := make([]float64, n)
		var weights []int
		if !unit {
			weights = make([]int, n)
		}
		for i := range xs {
			xs[i] = float64(int8(data[3*i])) / 8
			if weights != nil {
				weights[i] = int(data[3*i+1]) | int(data[3*i+2])<<8
			}
		}
		rng := rand.New(rand.NewSource(seed))
		ranks := []float64{0, 100, 50, 95, 99}
		for k := 0; k < 3; k++ {
			ranks = append(ranks, rng.Float64()*100)
		}
		sort.Float64s(ranks[5:])
		checkPercentiles(t, xs, weights, ranks)
	})
}

// BenchmarkMetrics extracts every metric of a run shaped like the
// cohort-visits benchmark workload's: 850 servers and the two strata of
// each of 13,600 weighted cohorts holding a million heavy-tailed users.
func BenchmarkMetrics(b *testing.B) {
	pop, err := workload.GeneratePopulation(workload.PopulationConfig{
		Servers: 850, TotalUsers: 1_000_000, Alpha: 1.2, CohortsPerServer: 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Inconsistencies in 10 ms steps up to a minute, so strata tie often.
	inconsistency := func() float64 { return float64(rng.Intn(6000)) / 100 }
	r := &cdn.Result{}
	for _, specs := range pop.Servers {
		r.ServerAvgInconsistency = append(r.ServerAvgInconsistency, inconsistency())
		for _, spec := range specs {
			r.UserAvgInconsistency = append(r.UserAvgInconsistency, inconsistency())
			r.UserWeights = append(r.UserWeights, 1)
			if spec.Count > 1 {
				r.UserAvgInconsistency = append(r.UserAvgInconsistency, inconsistency())
				r.UserWeights = append(r.UserWeights, spec.Count-1)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metricsSink = Metrics(r)
	}
	b.ReportMetric(float64(len(r.UserAvgInconsistency)), "entries/op")
}

// metricsSink keeps BenchmarkMetrics' result alive so the call is not elided.
var metricsSink map[string]float64
