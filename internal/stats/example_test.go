package stats_test

import (
	"fmt"

	"cdnconsistency/internal/stats"
)

func ExampleCDF() {
	cdf, err := stats.NewCDF([]float64{5, 10, 10, 20, 40})
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(X<=10) = %.1f\n", cdf.At(10))
	fmt.Printf("range    = [%.0f, %.0f]\n", cdf.Min(), cdf.Max())
	// Output:
	// P(X<=10) = 0.6
	// range    = [5, 40]
}

func ExampleSummarize() {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s, err := stats.Summarize(xs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("p5=%.0f median=%.0f p95=%.0f\n", s.P5, s.Median, s.P95)
	// Output:
	// p5=5 median=50 p95=95
}

func ExamplePearson() {
	x := []float64{1, 2, 3, 4}
	y := []float64{10, 20, 30, 40}
	r, err := stats.Pearson(x, y)
	if err != nil {
		panic(err)
	}
	fmt.Printf("r = %.0f\n", r)
	// Output:
	// r = 1
}
