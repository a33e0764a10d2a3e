package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// BootstrapMeanCI estimates a confidence interval for the mean of xs by the
// percentile bootstrap: resamples resampled means and takes the matching
// quantiles. confidence is e.g. 0.95; the generator seed makes the interval
// reproducible.
func BootstrapMeanCI(xs []float64, resamples int, confidence float64, seed int64) (Interval, error) {
	if len(xs) == 0 {
		return Interval{}, ErrEmpty
	}
	if resamples < 10 {
		return Interval{}, fmt.Errorf("stats: resamples %d < 10", resamples)
	}
	if confidence <= 0 || confidence >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence %v outside (0,1)", confidence)
	}
	n := len(xs)
	draw := intn(rand.NewSource(seed), n)
	means := make([]float64, resamples)
	for i := range means {
		var sum float64
		for j := 0; j < n; j++ {
			sum += xs[draw()]
		}
		means[i] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	lo := int(alpha * float64(resamples))
	hi := int((1 - alpha) * float64(resamples))
	if hi >= resamples {
		hi = resamples - 1
	}
	return Interval{Lo: means[lo], Hi: means[hi]}, nil
}

// intn returns a generator of the sequence rand.New(src).Intn(n) yields.
// For n <= MaxInt32 that is Int31n's: the top 31 bits of each src.Int63,
// rejected above the largest multiple of n that fits, reduced mod n. The
// bound is computed once here rather than on every draw, and src is called
// directly. For a power of two nothing is rejected and v%n is Int31n's mask.
func intn(src rand.Source, n int) func() int {
	if n > math.MaxInt32 {
		rng := rand.New(src)
		return func() int { return rng.Intn(n) }
	}
	n31 := int32(n)
	bound := int32((1 << 31) - 1 - (1<<31)%uint32(n31))
	return func() int {
		v := int32(src.Int63() >> 32)
		for v > bound {
			v = int32(src.Int63() >> 32)
		}
		return int(v % n31)
	}
}
