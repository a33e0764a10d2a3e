package plan

import (
	"math/rand"
	"sort"
	"testing"
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

// One sort and one cumulative pass must give every percentile the
// sort-per-rank reference gives, on weighted and unweighted inputs full of
// tied values, and on the 1-, 2- and 3-entry edges.
func TestWeightedPercentilesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ranks := []float64{0, 1, 50, 95, 99, 100}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(60)
		if trial%50 == 0 {
			n = 1 + trial%3
		}
		xs := make([]float64, n)
		var weights []int
		if trial%2 == 1 {
			weights = make([]int, n)
		}
		for i := range xs {
			// Few distinct values, so most entries tie with another.
			xs[i] = float64(rng.Intn(8)) / 4
			if weights != nil {
				weights[i] = 1 + rng.Intn(40)
			}
		}
		got := weightedPercentiles(xs, weights, ranks)
		for k, p := range ranks {
			if want := sortPerRankPercentile(xs, weights, p); got[k] != want {
				t.Fatalf("trial %d p%v: got %v, reference %v (xs %v weights %v)", trial, p, got[k], want, xs, weights)
			}
		}
	}
}
