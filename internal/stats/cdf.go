package stats

import "sort"

// CDF is an empirical cumulative distribution function over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. It is an error to build one from
// no samples.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// N returns the number of samples underlying the CDF.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of samples <= x, so search for the first value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Min returns the smallest sample.
func (c *CDF) Min() float64 { return c.sorted[0] }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.sorted[len(c.sorted)-1] }

// Points samples the CDF at n evenly spaced x positions across [Min, Max],
// returning (x, P(X<=x)) pairs suitable for plotting a figure series.
func (c *CDF) Points(n int) []CDFPoint {
	if n < 2 {
		n = 2
	}
	lo, hi := c.Min(), c.Max()
	pts := make([]CDFPoint, 0, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts = append(pts, CDFPoint{X: x, P: c.At(x)})
	}
	return pts
}

// CDFPoint is one plotted point of an empirical CDF.
type CDFPoint struct {
	X float64 // sample value
	P float64 // cumulative probability P(X <= x)
}
