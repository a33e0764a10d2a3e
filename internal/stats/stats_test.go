package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Mean(tt.xs)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) succeeded")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) succeeded")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("Percentile on empty did not return ErrEmpty")
	}
	// Single element: every percentile is that element.
	for _, p := range []float64{0, 37, 100} {
		got, err := Percentile([]float64{42}, p)
		if err != nil || got != 42 {
			t.Errorf("Percentile(single, %v) = %v, %v", p, got, err)
		}
	}
}

func TestSummarizeOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormFloat64() * 10
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !(s.P5 <= s.Median && s.Median <= s.P95) {
		t.Errorf("percentiles out of order: %+v", s)
	}
}

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Errorf("RMSE(identical) = %v, %v", got, err)
	}
	got, err = RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(12.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("RMSE length mismatch succeeded")
	}
	if _, err := RMSE(nil, nil); err != ErrEmpty {
		t.Error("RMSE empty did not return ErrEmpty")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if r, err := Pearson(x, yPos); err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Pearson(pos) = %v, %v; want 1", r, err)
	}
	if r, err := Pearson(x, yNeg); err != nil || math.Abs(r+1) > 1e-12 {
		t.Errorf("Pearson(neg) = %v, %v; want -1", r, err)
	}
	if _, err := Pearson(x, []float64{3, 3, 3, 3, 3}); err == nil {
		t.Error("Pearson with zero variance succeeded")
	}
	if _, err := Pearson(x, x[:2]); err == nil {
		t.Error("Pearson length mismatch succeeded")
	}
}

func TestPropertyPearsonBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(100)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		c, err := Pearson(x, y)
		if err != nil {
			return true // degenerate draw
		}
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 {
		t.Error("zero-value accumulator not empty")
	}
	for _, x := range []float64{3, -1, 7, 2} {
		a.Add(x)
	}
	if a.N() != 4 {
		t.Errorf("N = %d", a.N())
	}
	if a.Min() != -1 || a.Max() != 7 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if math.Abs(a.Mean()-2.75) > 1e-12 {
		t.Errorf("Mean = %v", a.Mean())
	}
	if a.Sum() != 11 {
		t.Errorf("Sum = %v", a.Sum())
	}
}

func TestCDFBasics(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {99, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if _, err := NewCDF(nil); err != ErrEmpty {
		t.Error("NewCDF(nil) did not return ErrEmpty")
	}
}

// Property: a CDF is monotone non-decreasing and reaches 1 at its max.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		pts := c.Points(20)
		for i := 1; i < len(pts); i++ {
			if pts[i].P < pts[i-1].P {
				return false
			}
		}
		return c.At(c.Max()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 10 + r.NormFloat64()*2
	}
	ci, err := BootstrapMeanCI(xs, 500, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo >= ci.Hi {
		t.Fatalf("degenerate interval %+v", ci)
	}
	mean, _ := Mean(xs)
	if mean < ci.Lo || mean > ci.Hi {
		t.Errorf("sample mean %.3f outside CI [%.3f, %.3f]", mean, ci.Lo, ci.Hi)
	}
	// The CI should be tight for 500 samples of sd 2: width ~4*2/sqrt(500) ~ 0.36.
	if w := ci.Hi - ci.Lo; w > 1 {
		t.Errorf("CI width %.3f too wide", w)
	}
	// Deterministic per seed.
	again, err := BootstrapMeanCI(xs, 500, 0.95, 1)
	if err != nil || again != ci {
		t.Errorf("bootstrap not deterministic: %+v vs %+v (%v)", ci, again, err)
	}
}

// TestIntnMatchesRandIntn pins the bootstrap's draw sequence to
// rand.New(rand.NewSource(seed)).Intn(n) for powers of two (1, 2, 2^20)
// and other sizes (7, 2^20+3, and 2^30+1, which rejects about half its
// draws).
func TestIntnMatchesRandIntn(t *testing.T) {
	for _, n := range []int{1, 2, 7, 1 << 20, 1<<20 + 3, 1<<30 + 1} {
		for _, seed := range []int64{0, 1, 9, -5} {
			rng := rand.New(rand.NewSource(seed))
			draw := intn(rand.NewSource(seed), n)
			for i := 0; i < 2000; i++ {
				if got, want := draw(), rng.Intn(n); got != want {
					t.Fatalf("n=%d seed=%d draw %d: got %d, rand.Intn %d", n, seed, i, got, want)
				}
			}
		}
	}
}

func TestBootstrapMeanCIValidation(t *testing.T) {
	if _, err := BootstrapMeanCI(nil, 100, 0.95, 1); err != ErrEmpty {
		t.Error("empty accepted")
	}
	if _, err := BootstrapMeanCI([]float64{1}, 5, 0.95, 1); err == nil {
		t.Error("too few resamples accepted")
	}
	for _, c := range []float64{0, 1, -0.5, 1.5} {
		if _, err := BootstrapMeanCI([]float64{1, 2}, 100, c, 1); err == nil {
			t.Errorf("confidence %v accepted", c)
		}
	}
}

func TestKendallTau(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if tau, err := KendallTau(x, x); err != nil || tau != 1 {
		t.Errorf("identical rankings tau = %v, %v", tau, err)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if tau, err := KendallTau(x, rev); err != nil || tau != -1 {
		t.Errorf("reversed rankings tau = %v, %v", tau, err)
	}
	if _, err := KendallTau([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := KendallTau(x, x[:3]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestPropertyKendallTauBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		tau, err := KendallTau(x, y)
		return err == nil && tau >= -1 && tau <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
